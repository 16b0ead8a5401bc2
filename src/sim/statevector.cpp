#include "sim/statevector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

#if YOUTIAO_SIMD_HAVE_AVX2
#include <immintrin.h>
#endif

namespace youtiao {

namespace {

using Cplx = std::complex<double>;

/** Amplitudes per chunk in the parallel gate kernels. Small states run
 *  inline through the pool's serial fallback; the cutoff keeps chunk
 *  bookkeeping negligible against the complex arithmetic. */
constexpr std::size_t kAmpGrain = 1u << 12;

std::size_t
ampGrain(std::size_t items)
{
    return std::max(kAmpGrain,
                    detail::defaultGrain(
                        items, ThreadPool::global().threadCount()));
}

void
rotationMatrix(GateKind kind, double angle, Cplx (&u)[2][2])
{
    const double c = std::cos(angle / 2.0);
    const double s = std::sin(angle / 2.0);
    switch (kind) {
      case GateKind::RX:
        u[0][0] = c;
        u[0][1] = Cplx(0, -s);
        u[1][0] = Cplx(0, -s);
        u[1][1] = c;
        break;
      case GateKind::RY:
        u[0][0] = c;
        u[0][1] = -s;
        u[1][0] = s;
        u[1][1] = c;
        break;
      case GateKind::RZ:
        u[0][0] = std::exp(Cplx(0, -angle / 2.0));
        u[0][1] = 0;
        u[1][0] = 0;
        u[1][1] = std::exp(Cplx(0, angle / 2.0));
        break;
      default:
        throw InternalError("not a rotation gate");
    }
}

/*
 * Gate kernels exist in up to three bodies (scalar / portable
 * interleaved / AVX2), selected by simd::active(). Bit-identity
 * contract: every body performs the same multiplies and adds in the
 * same association order as the scalar loop -- the AVX2 complex
 * multiply is the textbook (ac - bd, ad + bc) with no FMA contraction,
 * matching what the baseline compiler emits for std::complex -- and
 * sign flips / swaps are exact regardless of traversal order. The
 * vector bodies also iterate a *compressed* index space for CZ/SWAP
 * (only the indices that act), which changes nothing observable.
 */

/** Set a 1-bit at @p pos, shifting bits at and above @p pos up. */
inline std::size_t
insertSetBit(std::size_t x, std::size_t pos)
{
    return ((x >> pos) << (pos + 1)) | (std::size_t{1} << pos) |
           (x & ((std::size_t{1} << pos) - 1));
}

/** Insert bit value @p bit at @p pos, shifting upper bits up. */
inline std::size_t
insertBit(std::size_t x, std::size_t pos, std::size_t bit)
{
    return ((x >> pos) << (pos + 1)) | (bit << pos) |
           (x & ((std::size_t{1} << pos) - 1));
}

void
singleQubitScalar(Cplx *amps, std::size_t stride, std::size_t b,
                  std::size_t e, const Cplx (&u)[2][2])
{
    for (std::size_t p = b; p < e; ++p) {
        const std::size_t i0 =
            ((p & ~(stride - 1)) << 1) | (p & (stride - 1));
        const std::size_t i1 = i0 + stride;
        const Cplx a0 = amps[i0];
        const Cplx a1 = amps[i1];
        amps[i0] = u[0][0] * a0 + u[0][1] * a1;
        amps[i1] = u[1][0] * a0 + u[1][1] * a1;
    }
}

/** Same arithmetic as singleQubitScalar, but pair indices decomposed
 *  into contiguous runs so the two halves stream linearly -- the form
 *  the auto-vectorizer (and the AVX2 twin) wants. */
void
singleQubitRuns(Cplx *amps, std::size_t stride, std::size_t b,
                std::size_t e, const Cplx (&u)[2][2])
{
    std::size_t p = b;
    while (p < e) {
        const std::size_t run =
            std::min(e - p, stride - (p & (stride - 1)));
        const std::size_t i0 =
            ((p & ~(stride - 1)) << 1) | (p & (stride - 1));
        Cplx *lo = amps + i0;
        Cplx *hi = amps + i0 + stride;
        for (std::size_t k = 0; k < run; ++k) {
            const Cplx a0 = lo[k];
            const Cplx a1 = hi[k];
            lo[k] = u[0][0] * a0 + u[0][1] * a1;
            hi[k] = u[1][0] * a0 + u[1][1] * a1;
        }
        p += run;
    }
}

void
czRuns(Cplx *amps, std::size_t lo_bit, std::size_t hi_bit, std::size_t b,
       std::size_t e)
{
    const std::size_t lo_stride = std::size_t{1} << lo_bit;
    std::size_t c = b;
    while (c < e) {
        const std::size_t run =
            std::min(e - c, lo_stride - (c & (lo_stride - 1)));
        const std::size_t i =
            insertSetBit(insertSetBit(c, lo_bit), hi_bit);
        for (std::size_t k = 0; k < run; ++k)
            amps[i + k] = -amps[i + k];
        c += run;
    }
}

void
swapRuns(Cplx *amps, std::size_t qa, std::size_t qb, std::size_t b,
         std::size_t e)
{
    const std::size_t lo_bit = std::min(qa, qb);
    const std::size_t hi_bit = std::max(qa, qb);
    const std::size_t lo_stride = std::size_t{1} << lo_bit;
    // i holds (a=1, b=0); its partner j has the two bits exchanged.
    const std::size_t lo_val = lo_bit == qa ? 1 : 0;
    const std::size_t hi_val = 1 - lo_val;
    const std::size_t bit_a = std::size_t{1} << qa;
    const std::size_t bit_b = std::size_t{1} << qb;
    std::size_t c = b;
    while (c < e) {
        const std::size_t run =
            std::min(e - c, lo_stride - (c & (lo_stride - 1)));
        const std::size_t i = insertBit(
            insertBit(c, lo_bit, lo_val), hi_bit, hi_val);
        const std::size_t j = (i & ~bit_a) | bit_b;
        for (std::size_t k = 0; k < run; ++k)
            std::swap(amps[i + k], amps[j + k]);
        c += run;
    }
}

#if YOUTIAO_SIMD_HAVE_AVX2

/** (ur*ar - ui*ai, ur*ai + ui*ar) per complex lane pair -- the exact
 *  operation order of the scalar std::complex multiply; mul + addsub,
 *  never FMA, so the bits match. */
YOUTIAO_TARGET_AVX2 inline __m256d
complexMulAvx2(__m256d a, __m256d u_re, __m256d u_im)
{
    const __m256d t1 = _mm256_mul_pd(a, u_re);
    const __m256d t2 =
        _mm256_mul_pd(_mm256_permute_pd(a, 0x5), u_im);
    return _mm256_addsub_pd(t1, t2);
}

YOUTIAO_TARGET_AVX2 void
singleQubitAvx2(Cplx *amps, std::size_t stride, std::size_t b,
                std::size_t e, const Cplx (&u)[2][2])
{
    double *d = reinterpret_cast<double *>(amps);
    if (stride == 1) {
        // One pair per vector: v = [a0, a1] at doubles 4p. The matrix
        // columns are laid out per 128-bit lane so lanes 0-1 compute
        // the new a0 and lanes 2-3 the new a1.
        const __m256d c0r = _mm256_setr_pd(u[0][0].real(), u[0][0].real(),
                                           u[1][0].real(), u[1][0].real());
        const __m256d c0i = _mm256_setr_pd(u[0][0].imag(), u[0][0].imag(),
                                           u[1][0].imag(), u[1][0].imag());
        const __m256d c1r = _mm256_setr_pd(u[0][1].real(), u[0][1].real(),
                                           u[1][1].real(), u[1][1].real());
        const __m256d c1i = _mm256_setr_pd(u[0][1].imag(), u[0][1].imag(),
                                           u[1][1].imag(), u[1][1].imag());
        for (std::size_t p = b; p < e; ++p) {
            const __m256d v = _mm256_loadu_pd(d + 4 * p);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            const __m256d res =
                _mm256_add_pd(complexMulAvx2(a0, c0r, c0i),
                              complexMulAvx2(a1, c1r, c1i));
            _mm256_storeu_pd(d + 4 * p, res);
        }
        return;
    }
    const __m256d u00r = _mm256_set1_pd(u[0][0].real());
    const __m256d u00i = _mm256_set1_pd(u[0][0].imag());
    const __m256d u01r = _mm256_set1_pd(u[0][1].real());
    const __m256d u01i = _mm256_set1_pd(u[0][1].imag());
    const __m256d u10r = _mm256_set1_pd(u[1][0].real());
    const __m256d u10i = _mm256_set1_pd(u[1][0].imag());
    const __m256d u11r = _mm256_set1_pd(u[1][1].real());
    const __m256d u11i = _mm256_set1_pd(u[1][1].imag());
    std::size_t p = b;
    while (p < e) {
        const std::size_t run =
            std::min(e - p, stride - (p & (stride - 1)));
        const std::size_t i0 =
            ((p & ~(stride - 1)) << 1) | (p & (stride - 1));
        double *lo = d + 2 * i0;
        double *hi = d + 2 * (i0 + stride);
        std::size_t k = 0;
        for (; k + 2 <= run; k += 2) {
            const __m256d a0 = _mm256_loadu_pd(lo + 2 * k);
            const __m256d a1 = _mm256_loadu_pd(hi + 2 * k);
            _mm256_storeu_pd(
                lo + 2 * k,
                _mm256_add_pd(complexMulAvx2(a0, u00r, u00i),
                              complexMulAvx2(a1, u01r, u01i)));
            _mm256_storeu_pd(
                hi + 2 * k,
                _mm256_add_pd(complexMulAvx2(a0, u10r, u10i),
                              complexMulAvx2(a1, u11r, u11i)));
        }
        if (k < run) {
            Cplx *clo = amps + i0;
            Cplx *chi = amps + i0 + stride;
            const Cplx a0 = clo[k];
            const Cplx a1 = chi[k];
            clo[k] = u[0][0] * a0 + u[0][1] * a1;
            chi[k] = u[1][0] * a0 + u[1][1] * a1;
        }
        p += run;
    }
}

YOUTIAO_TARGET_AVX2 void
czAvx2(Cplx *amps, std::size_t lo_bit, std::size_t hi_bit, std::size_t b,
       std::size_t e)
{
    double *d = reinterpret_cast<double *>(amps);
    const __m256d sign = _mm256_set1_pd(-0.0);
    const std::size_t lo_stride = std::size_t{1} << lo_bit;
    std::size_t c = b;
    while (c < e) {
        const std::size_t run =
            std::min(e - c, lo_stride - (c & (lo_stride - 1)));
        const std::size_t i =
            insertSetBit(insertSetBit(c, lo_bit), hi_bit);
        double *p = d + 2 * i;
        std::size_t k = 0;
        for (; k + 2 <= run; k += 2) {
            _mm256_storeu_pd(
                p + 2 * k,
                _mm256_xor_pd(_mm256_loadu_pd(p + 2 * k), sign));
        }
        if (k < run)
            amps[i + k] = -amps[i + k];
        c += run;
    }
}

YOUTIAO_TARGET_AVX2 void
swapAvx2(Cplx *amps, std::size_t qa, std::size_t qb, std::size_t b,
         std::size_t e)
{
    double *d = reinterpret_cast<double *>(amps);
    const std::size_t lo_bit = std::min(qa, qb);
    const std::size_t hi_bit = std::max(qa, qb);
    const std::size_t lo_stride = std::size_t{1} << lo_bit;
    const std::size_t lo_val = lo_bit == qa ? 1 : 0;
    const std::size_t hi_val = 1 - lo_val;
    const std::size_t bit_a = std::size_t{1} << qa;
    const std::size_t bit_b = std::size_t{1} << qb;
    std::size_t c = b;
    while (c < e) {
        const std::size_t run =
            std::min(e - c, lo_stride - (c & (lo_stride - 1)));
        const std::size_t i = insertBit(
            insertBit(c, lo_bit, lo_val), hi_bit, hi_val);
        const std::size_t j = (i & ~bit_a) | bit_b;
        double *pi = d + 2 * i;
        double *pj = d + 2 * j;
        std::size_t k = 0;
        for (; k + 2 <= run; k += 2) {
            const __m256d vi = _mm256_loadu_pd(pi + 2 * k);
            const __m256d vj = _mm256_loadu_pd(pj + 2 * k);
            _mm256_storeu_pd(pi + 2 * k, vj);
            _mm256_storeu_pd(pj + 2 * k, vi);
        }
        if (k < run)
            std::swap(amps[i + k], amps[j + k]);
        c += run;
    }
}

#endif // YOUTIAO_SIMD_HAVE_AVX2

} // namespace

StateVector::StateVector(std::size_t qubit_count)
    : qubitCount_(qubit_count)
{
    requireConfig(qubit_count >= 1 && qubit_count <= 24,
                  "state vector supports 1..24 qubits");
    amps_.assign(std::size_t{1} << qubit_count, Cplx(0, 0));
    amps_[0] = Cplx(1, 0);
}

void
StateVector::applySingleQubit(std::size_t qubit, const Cplx (&u)[2][2])
{
    requireConfig(qubit < qubitCount_, "qubit out of range");
    const std::size_t stride = std::size_t{1} << qubit;
    // Pair p couples amplitudes i0 and i0 + stride; every pair is
    // independent, so chunks of the pair index space partition the work
    // and the parallel result is bit-identical to the serial one (and
    // to every SIMD level, see the kernel contract above).
    const std::size_t pairs = amps_.size() / 2;
    const simd::Level level = simd::active();
    parallelChunks(0, pairs, ampGrain(pairs),
                   [&](std::size_t b, std::size_t e) {
                       switch (level) {
#if YOUTIAO_SIMD_HAVE_AVX2
                         case simd::Level::Avx2:
                           singleQubitAvx2(amps_.data(), stride, b, e, u);
                           return;
#endif
                         case simd::Level::Interleaved:
                           singleQubitRuns(amps_.data(), stride, b, e, u);
                           return;
                         default:
                           singleQubitScalar(amps_.data(), stride, b, e,
                                             u);
                           return;
                       }
                   });
}

void
StateVector::applyCz(std::size_t a, std::size_t b)
{
    requireConfig(a < qubitCount_ && b < qubitCount_ && a != b,
                  "CZ operands invalid");
    const std::size_t mask =
        (std::size_t{1} << a) | (std::size_t{1} << b);
    const simd::Level level = simd::active();
    if (level == simd::Level::Scalar) {
        parallelChunks(0, amps_.size(), ampGrain(amps_.size()),
                       [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                               if ((i & mask) == mask)
                                   amps_[i] = -amps_[i];
                           }
                       });
        return;
    }
    // Vector levels walk the compressed index space: only the quarter
    // of the amplitudes with both control bits set get the sign flip,
    // in contiguous runs. Negation is exact, so order is immaterial.
    const std::size_t lo_bit = std::min(a, b);
    const std::size_t hi_bit = std::max(a, b);
    const std::size_t quarter = amps_.size() / 4;
    parallelChunks(0, quarter, ampGrain(quarter),
                   [&](std::size_t lo, std::size_t hi) {
#if YOUTIAO_SIMD_HAVE_AVX2
                       if (level == simd::Level::Avx2) {
                           czAvx2(amps_.data(), lo_bit, hi_bit, lo, hi);
                           return;
                       }
#endif
                       czRuns(amps_.data(), lo_bit, hi_bit, lo, hi);
                   });
}

void
StateVector::applyGate(const Gate &gate)
{
    Cplx u[2][2];
    switch (gate.kind) {
      case GateKind::RX:
      case GateKind::RY:
      case GateKind::RZ:
        rotationMatrix(gate.kind, gate.angle, u);
        applySingleQubit(gate.qubit0, u);
        break;
      case GateKind::H: {
        const double r = 1.0 / std::sqrt(2.0);
        u[0][0] = r;
        u[0][1] = r;
        u[1][0] = r;
        u[1][1] = -r;
        applySingleQubit(gate.qubit0, u);
        break;
      }
      case GateKind::X:
        u[0][0] = 0;
        u[0][1] = 1;
        u[1][0] = 1;
        u[1][1] = 0;
        applySingleQubit(gate.qubit0, u);
        break;
      case GateKind::CZ:
        applyCz(gate.qubit0, gate.qubit1);
        break;
      case GateKind::CNOT: {
        // CX = (I (x) H) CZ (I (x) H) on the target.
        const double r = 1.0 / std::sqrt(2.0);
        u[0][0] = r;
        u[0][1] = r;
        u[1][0] = r;
        u[1][1] = -r;
        applySingleQubit(gate.qubit1, u);
        applyCz(gate.qubit0, gate.qubit1);
        applySingleQubit(gate.qubit1, u);
        break;
      }
      case GateKind::SWAP: {
        const std::size_t bit_a = std::size_t{1} << gate.qubit0;
        const std::size_t bit_b = std::size_t{1} << gate.qubit1;
        const simd::Level level = simd::active();
        if (level == simd::Level::Scalar) {
            // Only indices with (a=1, b=0) act, each swapping with its
            // unique (a=0, b=1) partner, so distinct i touch disjoint
            // pairs and chunking the full range is race-free and
            // order-independent.
            parallelChunks(0, amps_.size(), ampGrain(amps_.size()),
                           [&](std::size_t lo, std::size_t hi) {
                               for (std::size_t i = lo; i < hi; ++i) {
                                   const bool ai = (i & bit_a) != 0;
                                   const bool bi = (i & bit_b) != 0;
                                   if (ai && !bi) {
                                       const std::size_t j =
                                           (i & ~bit_a) | bit_b;
                                       std::swap(amps_[i], amps_[j]);
                                   }
                               }
                           });
            break;
        }
        // Vector levels enumerate only the (a=1, b=0) quarter of the
        // index space as contiguous runs; pure data movement, so any
        // traversal order yields the identical state.
        const std::size_t quarter = amps_.size() / 4;
        parallelChunks(0, quarter, ampGrain(quarter),
                       [&](std::size_t lo, std::size_t hi) {
#if YOUTIAO_SIMD_HAVE_AVX2
                           if (level == simd::Level::Avx2) {
                               swapAvx2(amps_.data(), gate.qubit0,
                                        gate.qubit1, lo, hi);
                               return;
                           }
#endif
                           swapRuns(amps_.data(), gate.qubit0,
                                    gate.qubit1, lo, hi);
                       });
        break;
      }
      case GateKind::Measure:
      case GateKind::Barrier:
        break; // no state change in this noiseless oracle
    }
}

void
StateVector::run(const QuantumCircuit &qc)
{
    requireConfig(qc.qubitCount() <= qubitCount_,
                  "circuit wider than the register");
    const metrics::ScopedTimer timer("sim.gate_kernels");
    metrics::count("sim.gates_applied", qc.gates().size());
    for (const Gate &g : qc.gates())
        applyGate(g);
}

double
StateVector::probabilityOfOne(std::size_t qubit) const
{
    requireConfig(qubit < qubitCount_, "qubit out of range");
    const std::size_t bit = std::size_t{1} << qubit;
    double p = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        if (i & bit)
            p += std::norm(amps_[i]);
    }
    return p;
}

double
StateVector::probability(std::size_t basis_index) const
{
    requireConfig(basis_index < amps_.size(), "basis index out of range");
    return std::norm(amps_[basis_index]);
}

double
StateVector::fidelityWith(const StateVector &other) const
{
    requireConfig(amps_.size() == other.amps_.size(),
                  "state sizes differ");
    Cplx overlap(0, 0);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        overlap += std::conj(amps_[i]) * other.amps_[i];
    return std::norm(overlap);
}

double
StateVector::norm() const
{
    double n = 0.0;
    for (const Cplx &a : amps_)
        n += std::norm(a);
    return n;
}

StateVector
simulate(const QuantumCircuit &qc)
{
    StateVector state(qc.qubitCount());
    state.run(qc);
    return state;
}

} // namespace youtiao
