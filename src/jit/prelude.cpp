// prelude.cpp — generated-source fragments shared by the JIT emitters.
//
// Emitters write prelude_header() (the lane vectors both backends share),
// their own `constexpr int L = <lanes>;`, then only the fragments the part
// calls.  The rtl tape writes tape_base_prelude() (the width classes: u8,
// u16, u32 and u64 lanes, the lane-vector bytes of each class, the
// converting load and the change-accumulating v_store), then in a level
// chunk the fragment of each driver its statements call (the
// single-word v_* drivers, among them the one-word memory read v_mread;
// multi-word instructions call back into the engine) and in part 0 the
// tape step set (the class-typed commit helpers).  The gate writes
// lane_ops_prelude() (the store-only chunk layer for fused level loops) and
// step_prelude() (its word-copy step helpers), and a part that reads or
// writes a memory gate_memory_prelude() (the g_mread / g_mwrite port
// helpers).
//
// Lane vectors are GCC/Clang vector-extension types, not <immintrin.h>
// intrinsics: every driver has one body, written once against lane vectors
// of its classes, and the generated file includes nothing but <cstdint>
// (parsing the intrinsics header used to cost more than compiling a small
// design).  The widths are picked once per file from the ISA macros the
// cpu-probed compile flags define.  Only three helpers name ISA builtins:
// the any-bit test (vptest / a mask compare instead of an OR-fold), on GCC
// and-not (see v_andn), and on AVX-512 v_mread's gather under an unsigned
// in-depth mask (the builtins GCC's and Clang's avx512fintrin.h both
// wrap).  Class conversions go through __builtin_convertvector, which is
// no intrinsic, one halving or doubling of the element at a time.
//
// The step helpers walk a literal lane or word count in whole vectors, as
// the drivers do: GCC does not vectorize a runtime-length copy between the
// arena and the step scratch, which may alias.  The commit copies into the
// scratch only what a register commit could overwrite (tape::Program's
// sampling rule).  Every rtl register commit is v_stn or v_merge, every
// write port v_mwrite, a lane loop with no compare before its store (a
// vector store would need a scatter).

#include "jit/jit.hpp"

namespace osss::jit {
namespace {

const char kHeader[] = R"OSSS(// generated by the osss jit backend -- do not edit
#include <cstdint>
using u64 = std::uint64_t;
namespace {

// W consecutive lane words as one value: operators apply per word, and a
// compare yields an all-ones / zero word per lane.  One word is a plain
// scalar (a compare yields 0 / 1), which GCC's SLP pass may still
// vectorize across neighbouring statements.
template <int W>
struct Vec {
  typedef u64 u __attribute__((vector_size(8 * W)));
  typedef long long s __attribute__((vector_size(8 * W)));
};
template <>
struct Vec<1> {
  typedef u64 u;
  typedef long long s;
};

// The widest lane vector the target enables, picked once per file.
#if defined(__AVX512F__)
constexpr int VL = 8;
#elif defined(__AVX2__)
constexpr int VL = 4;
#else
constexpr int VL = 1;
#endif

// Widest vector that tiles n lane words: VL, else the AVX2 width, else
// one word.
constexpr int lane_width(int n) {
  return n % VL == 0 ? VL : VL > 4 && n % 4 == 0 ? 4 : 1;
}

template <class V>
inline V vload(const u64* p) {
  V x;
  __builtin_memcpy(&x, p, sizeof x);
  return x;
}
template <class V>
inline void vstore(u64* p, V x) {
  __builtin_memcpy(p, &x, sizeof x);
}
template <class V>
inline V vsplat(u64 k) {
  return V{} + k;
}

// True when any bit of x is set.  The full-width vectors use the test
// instructions; an OR-fold of the words would cost a shuffle chain.
template <class V>
inline bool v_any(V x) {
  u64 w[sizeof(V) / 8], r = 0;
  vstore(w, x);
  for (const u64 v : w) r |= v;
  return r != 0;
}
// ~a & b.  Given the generic form, GCC rewrites an and/andnot/or
// multiplexer into an xor form that keeps more values live, and the gate
// level sweeps spill; its andnot builtins keep the andn instruction (Clang
// emits andn for the generic form).
template <class V>
inline V v_andn(V a, V b) {
  return ~a & b;
}
#if defined(__AVX2__)
inline bool v_any(Vec<4>::u x) {
  return !__builtin_ia32_ptestz256((Vec<4>::s)x, (Vec<4>::s)x);
}
#if !defined(__clang__)
inline Vec<4>::u v_andn(Vec<4>::u a, Vec<4>::u b) {
  return (Vec<4>::u)__builtin_ia32_andnotsi256((Vec<4>::s)a, (Vec<4>::s)b);
}
#endif
#endif
#if defined(__AVX512F__)
inline bool v_any(Vec<8>::u x) {
  return __builtin_ia32_cmpq512_mask((Vec<8>::s)x, Vec<8>::s{}, 4, 0xff) != 0;
}
#if !defined(__clang__)
inline Vec<8>::u v_andn(Vec<8>::u a, Vec<8>::u b) {
  return (Vec<8>::u)__builtin_ia32_pandnq512_mask(
      (Vec<8>::s)a, (Vec<8>::s)b, Vec<8>::s{}, 0xff);
}
#endif
#endif
)OSSS";

// ---- the rtl tape preludes ---------------------------------------------------
// Width classes: a tape slot holds each lane in the narrowest of u8, u16,
// u32 and u64 that fits the widest value it holds (lane l of a class-T slot
// sits l * sizeof(T) bytes past its offset).  A driver computes in the
// widest class it touches and steps G lanes at a time: as many as one lane
// vector of that class holds, halved until G divides the lane count, and
// plain scalars at G = 1 (one lane).  It loads every operand in its own
// class and converts it (cvt, through __builtin_convertvector, which is no
// intrinsic, so the file still includes nothing but <cstdint>), and stores
// the result converted to the destination's class.  Byte and halfword
// vectors are 64 bytes only under AVX-512BW: without it GCC scalarizes
// their 64-byte operations, so they take 32.

const char kTapeBase[] = R"OSSS(
// ---- width classes -------------------------------------------------------
using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;

template <class T> struct Signed;
template <> struct Signed<u8> { typedef signed char t; };
template <> struct Signed<u16> { typedef short t; };
template <> struct Signed<u32> { typedef int t; };
template <> struct Signed<u64> { typedef long long t; };

template <int B> struct OfBytes;
template <> struct OfBytes<1> { typedef u8 t; };
template <> struct OfBytes<2> { typedef u16 t; };
template <> struct OfBytes<4> { typedef u32 t; };
template <> struct OfBytes<8> { typedef u64 t; };

// Lane-vector bytes of class T on the target.
template <class T>
constexpr int vbytes() {
#if defined(__AVX512BW__)
  return 64;
#elif defined(__AVX512F__)
  return sizeof(T) >= 4 ? 64 : 32;
#elif defined(__AVX2__)
  return 32;
#else
  return sizeof(T) >= 8 ? 8 : 16;
#endif
}

// Lanes per step of a driver computing in class T over N lanes.
template <class T, int N>
constexpr int step_lanes() {
  int g = vbytes<T>() / (int)sizeof(T);
  while (N % g != 0) g /= 2;
  return g;
}

// G lanes of class T: a vector, or a plain scalar at G = 1.
template <class T, int G>
struct LV {
  typedef T u __attribute__((vector_size(sizeof(T) * G)));
  typedef typename Signed<T>::t s __attribute__((vector_size(sizeof(T) * G)));
};
template <class T>
struct LV<T, 1> {
  typedef T u;
  typedef typename Signed<T>::t s;
};
template <class T, int G>
using Lanes = typename LV<T, G>::u;

template <bool B, class X, class Y> struct Pick { typedef X t; };
template <class X, class Y> struct Pick<false, X, Y> { typedef Y t; };
template <class X, class... R> struct Widest { typedef X t; };
template <class X, class Y, class... R>
struct Widest<X, Y, R...> {
  typedef typename Widest<typename Pick<(sizeof(X) >= sizeof(Y)), X, Y>::t,
                          R...>::t t;
};

// G lanes of class F as class C, one halving or doubling of the element at
// a time: GCC 12 converts between element sizes 2x apart in one
// instruction but scalarizes a 4x or 8x conversion.
template <class C, int G, class F>
inline Lanes<C, G> cvt(Lanes<F, G> x) {
  if constexpr (sizeof(F) == sizeof(C)) {
    return x;
  } else if constexpr (G == 1) {
    return (C)x;
  } else {
    using M = typename OfBytes<(sizeof(F) < sizeof(C) ? sizeof(F) * 2
                                                      : sizeof(F) / 2)>::t;
    return cvt<C, G, M>(__builtin_convertvector(x, Lanes<M, G>));
  }
}

template <class T, int G>
inline Lanes<T, G> lload(const u8* p) {
  Lanes<T, G> x;
  __builtin_memcpy(&x, p, sizeof x);
  return x;
}
template <class T, int G>
inline void lstore(u8* p, Lanes<T, G> x) {
  __builtin_memcpy(p, &x, sizeof x);
}

template <class T> struct P {  // a slot: lanes of class T
  const u8* p;
};
template <class T> struct K {  // an inlined constant of class T
  u64 v;
};
template <class A> struct ClassOf;
template <class T> struct ClassOf<P<T>> { typedef T t; };
template <class T> struct ClassOf<K<T>> { typedef T t; };
template <class... A>
using WidestOf = typename Widest<typename ClassOf<A>::t...>::t;

// G lanes of an operand from lane l, converted to class C.
template <class C, int G, class T>
inline Lanes<C, G> ld(P<T> a, int l) {
  return cvt<C, G, T>(lload<T, G>(a.p + l * (int)sizeof(T)));
}
template <class C, int G, class T>
inline Lanes<C, G> ld(K<T> a, int) {
  return Lanes<C, G>{} + (C)a.v;
}

// True when any bit of x is set (the wide vectors through v_any).
template <class V>
inline bool any_lane(V x) {
  if constexpr (sizeof(V) >= 32) {
    return v_any((typename Vec<sizeof(V) / 8>::u)x);
  } else {
    u64 w[(sizeof(V) + 7) / 8] = {}, r = 0;
    __builtin_memcpy(w, &x, sizeof x);
    for (const u64 v : w) r |= v;
    return r != 0;
  }
}

// Stores f(l), G lanes computed in class C, as the N class-D lanes at d;
// true when any stored lane changed.
template <int N, class D, class C, int G = step_lanes<C, N>(), class F>
inline bool v_store(u8* d, F f) {
  using V = Lanes<D, G>;
  V acc = {};
  for (int l = 0; l < N; l += G) {
    u8* const p = d + l * (int)sizeof(D);
    const V nv = cvt<D, G, C>(f(l));
    acc |= nv ^ lload<D, G>(p);
    lstore<D, G>(p, nv);
  }
  return any_lane(acc);
}
)OSSS";

// One fragment per level-chunk driver (TapeDriver order); the emitter writes
// only those a chunk calls.  Each computes in class C, the widest its
// destination and operands touch, G lanes a step.
const char* const kTapeDrivers[] = {
    // kBin
    R"OSSS(
struct OpAdd {
  template <class V> static V f(V x, V y) { return x + y; }
};
struct OpSub {
  template <class V> static V f(V x, V y) { return x - y; }
};
struct OpMul {
  template <class V> static V f(V x, V y) { return x * y; }
};
struct OpAnd {
  template <class V> static V f(V x, V y) { return x & y; }
};
struct OpOr {
  template <class V> static V f(V x, V y) { return x | y; }
};
struct OpXor {
  template <class V> static V f(V x, V y) { return x ^ y; }
};

// d = op(a, b) & m
template <int N, class OP, class D, class A, class B>
inline bool v_bin(u8* d, A a, B b, u64 m) {
  using C = WidestOf<P<D>, A, B>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(
      d, [&](int l) -> V { return OP::f(ld<C, G>(a, l), ld<C, G>(b, l)) & (C)m; });
}

// v_bin one u64 lane at a time: no 64-bit vector multiply below AVX-512DQ.
template <int N, class OP, class D, class A, class B>
inline bool v_bin_sc(u8* d, A a, B b, u64 m) {
  return v_store<N, D, u64, 1>(
      d, [&](int l) -> u64 { return OP::f(ld<u64, 1>(a, l), ld<u64, 1>(b, l)) & m; });
}
)OSSS",
    // kNot
    R"OSSS(
// d = ~a & m
template <int N, class D, class A>
inline bool v_not(u8* d, A a, u64 m) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V { return ~ld<C, G>(a, l) & (C)m; });
}
)OSSS",
    // kShi
    R"OSSS(
// d = (a << k) & m  /  (a >> k) & m  (immediate shift; k past the class
// yields 0)
template <int N, bool SHL, class D, class A>
inline bool v_shi(u8* d, A a, int k, u64 m) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V {
    const V x = ld<C, G>(a, l);
    if (k >= 8 * (int)sizeof(C)) return V{};
    return (SHL ? x << k : x >> k) & (C)m;
  });
}
)OSSS",
    // kAshri
    R"OSSS(
// Arithmetic shift right of w-bit values by k: sign-filled, masked by m.
template <int N, class D, class A>
inline bool v_ashri(u8* d, A a, int k, int w, u64 m) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V {
    const V x = ld<C, G>(a, l);
    const V neg = V{} - ((x >> (w - 1)) & 1);  // all-ones where negative
    if (k >= w) return neg & (C)m;
    return (x >> k) | (neg & (C)(m ^ (m >> k)));
  });
}
)OSSS",
    // kShv
    R"OSSS(
// Variable shift by a one-word amount: amt >= w yields 0.  At least u32:
// below AVX-512BW there is no byte or halfword variable shift.
template <int N, bool SHL, class D, class A, class B>
inline bool v_shv(u8* d, A a, B b, int w, u64 m) {
  using C = WidestOf<P<D>, A, B, P<u32>>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V {
    const V amt = ld<C, G>(b, l);
    const V x = ld<C, G>(a, l);
    const V k = amt & (C)(8 * sizeof(C) - 1);
    const V sh = (SHL ? x << k : x >> k) & (C)m;
    return amt < (C)w ? sh : V{};
  });
}
)OSSS",
    // kCmp
    R"OSSS(
struct CEq {
  template <class V> static auto f(V x, V y) { return x == y; }
};
struct CNe {
  template <class V> static auto f(V x, V y) { return x != y; }
};
struct CUlt {
  template <class V> static auto f(V x, V y) { return x < y; }
};
struct CUle {
  template <class V> static auto f(V x, V y) { return x <= y; }
};

// d = cmp(a, b) ? 1 : 0  (unsigned)
template <int N, class OP, class D, class A, class B>
inline bool v_cmp(u8* d, A a, B b) {
  using C = WidestOf<P<D>, A, B>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(
      d, [&](int l) -> V { return (V)OP::f(ld<C, G>(a, l), ld<C, G>(b, l)) & 1; });
}
)OSSS",
    // kScmp
    R"OSSS(
// Signed compare of aw-bit values, left-normalized to the class.
template <int N, bool LE, class D, class A, class B>
inline bool v_scmp(u8* d, A a, B b, int aw) {
  using C = WidestOf<P<D>, A, B>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  using S = typename LV<C, G>::s;
  const int sh = 8 * (int)sizeof(C) - aw;
  return v_store<N, D, C>(d, [&](int l) -> V {
    const S x = (S)(ld<C, G>(a, l) << sh);
    const S y = (S)(ld<C, G>(b, l) << sh);
    return (V)(LE ? x <= y : x < y) & 1;
  });
}
)OSSS",
    // kMux
    R"OSSS(
// d = (s & 1) ? b : c
template <int N, class D, class S, class B, class E>
inline bool v_mux(u8* d, S s, B b, E c) {
  using C = WidestOf<P<D>, S, B, E>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V {
    return (ld<C, G>(s, l) & 1) != 0 ? ld<C, G>(b, l) : ld<C, G>(c, l);
  });
}
)OSSS",
    // kSext
    R"OSSS(
// d = a | (sign(a) ? hi : 0), sign bit at index sb
template <int N, class D, class A>
inline bool v_sext(u8* d, A a, int sb, u64 hi) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V {
    const V x = ld<C, G>(a, l);
    return x | ((V{} - ((x >> sb) & 1)) & (C)hi);
  });
}
)OSSS",
    // kRed
    R"OSSS(
template <int N, class D, class A>
inline bool v_redor(u8* d, A a) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V { return (V)(ld<C, G>(a, l) != 0) & 1; });
}

template <int N, class D, class A>
inline bool v_redand(u8* d, A a, u64 full) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(
      d, [&](int l) -> V { return (V)(ld<C, G>(a, l) == (C)full) & 1; });
}

// d = parity of a, folded by halves
template <int N, class D, class A>
inline bool v_redxor(u8* d, A a) {
  using C = WidestOf<P<D>, A>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(d, [&](int l) -> V {
    V x = ld<C, G>(a, l);
    for (int s = 4 * (int)sizeof(C); s != 0; s /= 2) x ^= x >> s;
    return x & 1;
  });
}
)OSSS",
    // kCat
    R"OSSS(
// One concat part: an operand and its bit offset.
template <class A> struct At {
  A a;
  int pos;
};
template <class A>
inline At<A> at(A a, int pos) {
  return {a, pos};
}

// d = the parts shifted to their offsets and OR-ed
template <int N, class D, class... A>
inline bool v_cat(u8* d, At<A>... p) {
  using C = WidestOf<P<D>, A...>;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, D, C>(
      d, [&](int l) -> V { return (V{} | ... | (V)(ld<C, G>(p.a, l) << p.pos)); });
}
)OSSS",
    // kMread
    R"OSSS(
// One-word memory read over N lanes (row r of lane l at m[r*N + l]; lane
// l's address, class A and AW words, at a): d[l] = its row while the
// address is below DEPTH, else 0, stored as class D; true when any lane
// changed.  With AVX-512 and one-word addresses, a gather loads eight lanes
// per instruction under an unsigned in-depth mask (a signed compare would
// let addresses at or above 2^63 through as negative), the addresses
// widened to u64 indices and the rows narrowed to class D; the other tiers
// load lane by lane.
template <int N, u64 DEPTH, class D, class A, int AW>
inline bool v_mread(u8* d, const u64* m, const u8* a) {
#if defined(__AVX512F__)
  if constexpr (AW == 1 && N % 8 == 0) {
    using V = Vec<8>::u;
    using S = Vec<8>::s;
    const S lane = {0, 1, 2, 3, 4, 5, 6, 7};
    return v_store<N, D, u64, 8>(d, [&](int l) -> V {
      const V ad = ld<u64, 8>(P<A>{a}, l);
      const unsigned char in = __builtin_ia32_ucmpq512_mask(
          (S)ad, (S)vsplat<V>(DEPTH), 1 /* less than */, 0xff);
      return (V)__builtin_ia32_gatherdiv8di(
          S{}, m, (S)(ad * (u64)N) + lane + l, in, 8);
    });
  }
#endif
  u64 ch = 0;
  for (int l = 0; l < N; ++l) {
    const u64 ad = lload<A, 1>(a + l * AW * (int)sizeof(A));
    const D nv = (D)(ad < DEPTH ? m[ad * N + l] : 0);
    ch |= (u64)(nv ^ lload<D, 1>(d + l * (int)sizeof(D)));
    lstore<D, 1>(d + l * (int)sizeof(D), nv);
  }
  return ch != 0;
}
)OSSS",
};

const char kTapeStep[] = R"OSSS(
// ---- sequential-commit helpers (the generated tape step) -------------------
// Each walks a literal lane count in the classes it touches: the register
// commits in lane vectors through v_store, the wider merge and the write
// port lane by lane.

// Copy NB bytes (pre-edge samples into the step scratch).
template <int NB>
inline void v_cpyb(u8* d, const u8* s) {
  __builtin_memcpy(d, s, NB);
}

// Register commit without enable: the N class-Q lanes at q take the
// class-D lanes at nd; true when any changed.
template <int N, class Q, class D>
inline bool v_stn(u8* q, const u8* nd) {
  using C = typename Widest<Q, D>::t;
  constexpr int G = step_lanes<C, N>();
  using V = Lanes<C, G>;
  return v_store<N, Q, C>(q, [&](int l) -> V { return ld<C, G>(P<D>{nd}, l); });
}

// Enable-masked register commit over N lanes of W words each: lane l takes
// its next value over the held q when bit 0 of its enable (class E) is
// set; true when any word changed.  One-word registers merge in lane
// vectors of the widest class, wider ones (u64 words) copy lane by lane.
template <int N, int W, class Q, class D, class E>
inline bool v_merge(u8* q, const u8* nd, const u8* en) {
  if constexpr (W == 1) {
    using C = typename Widest<Q, D, E>::t;
    constexpr int G = step_lanes<C, N>();
    using V = Lanes<C, G>;
    return v_store<N, Q, C>(q, [&](int l) -> V {
      const V o = ld<C, G>(P<Q>{q}, l);
      return o ^ ((o ^ ld<C, G>(P<D>{nd}, l)) & (V{} - (ld<C, G>(P<E>{en}, l) & 1)));
    });
  } else {
    bool diff = false;
    for (int l = 0; l < N; ++l)
      if (lload<E, 1>(en + l * (int)sizeof(E)) & 1)
        diff |= v_stn<W, u64, u64>(q + l * W * 8, nd + l * W * 8);
    return diff;
  }
}

// Memory write port over N lanes of W-word entries (word w of row r in lane
// l at m[(r*N + l)*W + w]; lane l's enable of class E, its address of
// class A and AW words, its data of class D, W words wide when W > 1): a
// lane with bit 0 of its enable set and an address below DEPTH stores its
// data, widened to u64, in that row.  The store is unconditional, the
// change OR-accumulated (nonzero when any word changed).  A branch-free
// select that stores a disabled lane's word back instead of skipping the
// lane ran slower at 256 lanes and 32 rows of one word, even with random
// enables (470 against 390 ns per call, AVX-512 VM).
template <int N, u64 DEPTH, int W, int AW, class E, class A, class D>
inline u64 v_mwrite(u64* m, const u8* en, const u8* a, const u8* v) {
  u64 ch = 0;
  for (int l = 0; l < N; ++l) {
    const u64 ad = lload<A, 1>(a + l * AW * (int)sizeof(A));
    if ((lload<E, 1>(en + l * (int)sizeof(E)) & 1) == 0 || ad >= DEPTH)
      continue;
    u64* const e = m + (ad * N + l) * W;
    for (int w = 0; w < W; ++w) {
      const u64 nv = lload<D, 1>(v + (l * W + w) * (int)sizeof(D));
      ch |= e[w] ^ nv;
      e[w] = nv;
    }
  }
  return ch;
}
)OSSS";

const char kStep[] = R"OSSS(
// ---- sequential-commit helpers (the generated gate step) -------------------
// Each walks a literal count of lane words in Vec<lane_width(N)> vectors,
// so each loop is a fixed count of whole vectors.

// Copy N words (pre-edge samples into the step scratch, gate memory taps).
template <int N>
inline void v_cpy(u64* d, const u64* s) {
  using V = typename Vec<lane_width(N)>::u;
  for (int i = 0; i < N; i += lane_width(N)) vstore(d + i, vload<V>(s + i));
}

// Copy N words; true when any is nonzero (enable sample: some lane is
// enabled).
template <int N>
inline bool v_snap(u64* d, const u64* s) {
  using V = typename Vec<lane_width(N)>::u;
  V acc = {};
  for (int i = 0; i < N; i += lane_width(N)) {
    const V nv = vload<V>(s + i);
    acc |= nv;
    vstore(d + i, nv);
  }
  return v_any(acc);
}
)OSSS";

// ---- store-only lane-word vector layer (gate fused level loops) ------------
// One `vw` covers VW consecutive lane words of a net; the gate emitter
// walks `for (int w = 0; w < L; w += VW)` and stores one expression per
// cell per chunk, so per-cell loop overhead amortizes across the whole
// level.  VW is the widest vector that divides the lane-word count; unlike
// the v_* drivers above there is no change accumulation (the gate suffix
// sweep recomputes every downstream cell regardless).  Inversions fold the
// tail mask by XOR: the masking invariant guarantees stored words only
// carry valid-lane bits, so x ^ TM == ~x & TM.

const char kLaneOps[] = R"OSSS(
constexpr int VW = lane_width(L);
using vw = Vec<VW>::u;
inline vw vld(const u64* p) { return vload<vw>(p); }
inline void vst(u64* p, vw x) { vstore(p, x); }
inline vw vbc(u64 k) { return vsplat<vw>(k); }
inline vw v_and(vw a, vw b) { return a & b; }
inline vw v_or(vw a, vw b) { return a | b; }
inline vw v_xor(vw a, vw b) { return a ^ b; }
inline vw v_inv(vw a) { return a ^ TM; }
inline vw v_nand(vw a, vw b) { return (a & b) ^ TM; }
inline vw v_nor(vw a, vw b) { return (a | b) ^ TM; }
inline vw v_xnor(vw a, vw b) { return a ^ b ^ TM; }
inline vw v_mux(vw s, vw t, vw e) { return (s & t) | v_andn(s, e); }
)OSSS";

// ---- gate memory ports (only the parts that read or write a memory) --------
// Two helpers, one per direction; every read group and every write port of
// the gate emitter is one call.  Word w of data bit b of row r sits at
// m[(r*WIDTH + b)*LW + w], a LW-word span per bit as for every net.  A
// port's A address nets read as one number per lane, of which only the low
// 64 bits reach a row (the event engine's decode); a lane whose address is
// DEPTH or more reads 0 and writes nothing.  Each helper makes one
// compile-time choice: while there is more than one lane and the rows the
// address reaches are at most four per lane, a one-hot row sweep serves
// every lane at once; otherwise each lane decodes its own address (the
// sweep visits every row, so a deep or one-lane memory would pay O(rows)
// time per access).
//
// The sweep walks whole rows, WIDTH*LW contiguous words, in explicit
// Vec<lane_width(WIDTH*LW)> chunks against the row's one-hot mask,
// replicated out to lcm(LW, chunk) words so that every chunk finds the mask
// of its lane words at one offset.  Plain word loops vectorized only
// erratically: GCC's SLP pass dropped half of them under a benign source
// reordering.  Rows go in blocks of B = 2^LB, LB the low address bits (at
// most three): the masks of the low bits are built once per call, each
// block ANDs in its high bits, and the rows of a block unroll at compile
// time, so a row costs one AND, its any-lane test and its row chunks, and
// the read accumulators stay in registers.  Unrolling every row compiled in
// O(rows): a 320-row memory at 192 lanes took 20 s per part.  Masking
// invariant: the complemented address words carry garbage in dead lanes,
// which the memory words (read) and the enable words (write) confine.

const char kGateMem[] = R"OSSS(
constexpr int g_gcd(int a, int b) { return b == 0 ? a : g_gcd(b, a % b); }

// The shape of one port: A address nets into DEPTH rows of WIDTH bits at
// LANES lanes (LW lane words).
template <int LANES, int LW, u64 DEPTH, int A, int WIDTH>
struct GMem {
  static constexpr int AB = A < 64 ? A : 64;  // address bits that reach a row
  static constexpr u64 ROWS =
      AB < 64 && (u64{1} << AB) < DEPTH ? u64{1} << AB : DEPTH;
  static constexpr bool SWEEP = LANES > 1 && ROWS <= u64{4} * LANES;
  static constexpr int SPAN = WIDTH * LW;          // words per row
  static constexpr int C = lane_width(SPAN);       // words per sweep chunk
  static constexpr int R = LW / g_gcd(LW, C) * C;  // replicated mask words
  static constexpr int K = R / C;                  // mask vectors per row
  static constexpr int LB = AB < 3 ? AB : 3;       // address bits per block
  static constexpr int B = 1 << LB;                // rows per block
  using W = typename Vec<C>::u;
};

// Chunk k of the one-hot mask of address bits [LO, HI) in row r over the
// replicated address words ar: bit i where bit i of r is set, its
// complement where clear.
template <class G, int LO, int HI>
inline typename G::W g_mask(const u64 (*ar)[G::R], u64 r, int k) {
  using W = typename G::W;
  W x = ~W{};
#pragma GCC unroll 64
  for (int i = LO; i < HI; ++i)
    x &= vload<W>(ar[i] + k * G::C) ^ (((r >> i) & 1) - 1);
  return x;
}

// The row sweep: the one-hot mask of row r over the replicated address
// words ar (address bit i of lane word w at ar[i][k] for k % LW == w),
// ANDed with the replicated seed words, goes to f(r, mk) for every row
// that some lane selects.
template <class G, class F>
inline void g_rows(const u64* seed, const u64 (*ar)[G::R], F&& f) {
  using W = typename G::W;
  W lo[G::B][G::K];
#pragma GCC unroll 8
  for (int j = 0; j < G::B; ++j)
    for (int k = 0; k < G::K; ++k)
      lo[j][k] = vload<W>(seed + k * G::C) & g_mask<G, 0, G::LB>(ar, j, k);
  for (u64 h = 0; h < G::ROWS; h += G::B) {
    W hi[G::K];
    for (int k = 0; k < G::K; ++k) hi[k] = g_mask<G, G::LB, G::AB>(ar, h, k);
#pragma GCC unroll 8
    for (int j = 0; j < G::B; ++j) {
      if (h + j >= G::ROWS) break;
      W mk[G::K], any = {};
      for (int k = 0; k < G::K; ++k) any |= mk[k] = lo[j][k] & hi[k];
      if (v_any(any)) f(h + j, mk);
    }
  }
}

// Lane b's address: bit b of the address bits' lane words aw[0 .. AB).
template <int AB>
inline u64 g_addr(const u64* aw, int b) {
  u64 a = 0;
  for (int i = AB; i-- > 0;) a = (a << 1) | ((aw[i] >> b) & 1);
  return a;
}

// One read group: address bit i of every lane at V[ad[i] + w], tap t
// (data bit bit[t]) stored to V[q[t] + w].
template <int LANES, int LW, u64 DEPTH, int A, int WIDTH, int T>
inline void g_mread(u64* V, const u64* m, const u64* ad, const u64* q,
                    const unsigned* bit) {
  using G = GMem<LANES, LW, DEPTH, A, WIDTH>;
  using W = typename G::W;
  if constexpr (G::SWEEP) {
    alignas(64) u64 ones[G::R], ar[G::AB > 0 ? G::AB : 1][G::R];
    for (u64& o : ones) o = ~u64{0};
    for (int i = 0; i < G::AB; ++i)
      for (int k = 0; k < G::R; k += LW) v_cpy<LW>(ar[i] + k, V + ad[i]);
    W acc[G::SPAN / G::C] = {};
    g_rows<G>(ones, ar, [&](u64 r, const W* mk) {
      const u64* const e = m + r * G::SPAN;
#pragma GCC unroll 64
      for (int c = 0; c < G::SPAN / G::C; ++c)
        acc[c] |= mk[c % G::K] & vload<W>(e + c * G::C);
    });
    alignas(64) u64 out[G::SPAN];
    for (int c = 0; c < G::SPAN / G::C; ++c) vstore(out + c * G::C, acc[c]);
    for (int t = 0; t < T; ++t) v_cpy<LW>(V + q[t], out + bit[t] * LW);
  } else {
    for (int w = 0; w < LW; ++w) {
      u64 aw[G::AB > 0 ? G::AB : 1], o[T] = {};
      for (int i = 0; i < G::AB; ++i) aw[i] = V[ad[i] + w];
      for (int b = 0; b < (LANES < 64 ? LANES : 64); ++b) {
        const u64 a = g_addr<G::AB>(aw, b);
        if (a >= DEPTH) continue;
        const u64* const e = m + a * G::SPAN + w;
        for (int t = 0; t < T; ++t) o[t] |= ((e[bit[t] * LW] >> b) & 1) << b;
      }
      for (int t = 0; t < T; ++t) V[q[t] + w] = o[t];
    }
  }
}

// One write port over its step-scratch samples s: the enable's lane words
// at s, address bit i at s + (1 + i)*LW, data bit b at s + (1 + A + b)*LW.
// Every enabled lane with an address below DEPTH stores its data in that
// row; true when a memory word changed.
template <int LANES, int LW, u64 DEPTH, int A, int WIDTH>
inline bool g_mwrite(u64* m, const u64* s) {
  using G = GMem<LANES, LW, DEPTH, A, WIDTH>;
  using W = typename G::W;
  const u64* const en = s;
  const u64* const ad = s + LW;
  const u64* const dv = s + (1 + A) * LW;
  u64 enabled = 0;
  for (int w = 0; w < LW; ++w) enabled |= en[w];
  if (enabled == 0) return false;
  if constexpr (G::SWEEP) {
    alignas(64) u64 er[G::R], ar[G::AB > 0 ? G::AB : 1][G::R];
    for (int k = 0; k < G::R; k += LW) v_cpy<LW>(er + k, en);
    for (int i = 0; i < G::AB; ++i)
      for (int k = 0; k < G::R; k += LW) v_cpy<LW>(ar[i] + k, ad + i * LW);
    W ch = {};
    g_rows<G>(er, ar, [&](u64 r, const W* sel) {
      u64* const e = m + r * G::SPAN;
#pragma GCC unroll 64
      for (int c = 0; c < G::SPAN / G::C; ++c) {
        const W sc = sel[c % G::K], o = vload<W>(e + c * G::C);
        const W nv = v_andn(sc, o) | (sc & vload<W>(dv + c * G::C));
        ch |= nv ^ o;
        vstore(e + c * G::C, nv);
      }
    });
    return v_any(ch);
  } else {
    u64 ch = 0;
    for (int w = 0; w < LW; ++w) {
      u64 aw[G::AB > 0 ? G::AB : 1];
      for (int i = 0; i < G::AB; ++i) aw[i] = ad[i * LW + w];
      for (u64 lanes = en[w]; lanes != 0; lanes &= lanes - 1) {
        const int b = __builtin_ctzll(lanes);
        const u64 a = g_addr<G::AB>(aw, b);
        if (a >= DEPTH) continue;
        u64* const e = m + a * G::SPAN + w;
        for (int d = 0; d < WIDTH; ++d) {
          const u64 nw = (e[d * LW] & ~(u64{1} << b)) |
                         (((dv[d * LW + w] >> b) & 1) << b);
          ch |= nw ^ e[d * LW];
          e[d * LW] = nw;
        }
      }
    }
    return ch != 0;
  }
}
)OSSS";

}  // namespace

static_assert(sizeof kTapeDrivers / sizeof kTapeDrivers[0] ==
                  static_cast<unsigned>(TapeDriver::kCount),
              "one fragment per TapeDriver");

const char* prelude_header() { return kHeader; }
const char* tape_base_prelude() { return kTapeBase; }
const char* tape_driver_prelude(TapeDriver d) {
  return kTapeDrivers[static_cast<unsigned>(d)];
}
const char* tape_step_prelude() { return kTapeStep; }
const char* step_prelude() { return kStep; }
const char* lane_ops_prelude() { return kLaneOps; }
const char* gate_memory_prelude() { return kGateMem; }
const char* hidden_function() {
  return "extern \"C\" __attribute__((visibility(\"hidden\"))) ";
}

}  // namespace osss::jit
