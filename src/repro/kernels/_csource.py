"""C source for the compiled kernel tier (:mod:`repro.kernels.native`).

The source is embedded as a string so the package needs no build step
and no package-data plumbing: the first native-tier call compiles it
with the system C compiler into a cached shared object (see
``_cbuild.py``).  Every function transcribes the seed scalar reference
loop for its kernel — bit-for-bit, including rounding (``rint`` under
the default round-to-nearest-even mode matches ``np.rint``) and the
exact group-testing control flow of the ZFP coder — so the parity
matrix in ``tests/test_fastpath_equivalence.py`` holds by construction.
"""

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

#define API __attribute__((visibility("default")))

/* ---------------- Lorenzo dual-quantization (SZ) ----------------
 * Fused prequantize + iterated first difference over a dense batch of
 * equal blocks laid out (nblocks, b0, b1, b2) C-contiguous (unused
 * trailing dims are 1).  Returns 1 when any |q| exceeds 2^62 (the
 * int64-overflow guard np.prequantize enforces), else 0. */
API int64_t repro_lorenzo_dualquant(
    const double* data, int64_t* out, int64_t nblocks,
    int64_t b0, int64_t b1, int64_t b2, double two_eb)
{
    const int64_t bs = b0 * b1 * b2;
    const double limit = 4611686018427387904.0; /* 2^62 */
    int64_t overflow = 0;
    for (int64_t b = 0; b < nblocks; b++) {
        const double* src = data + b * bs;
        int64_t* q = out + b * bs;
        for (int64_t i = 0; i < bs; i++) {
            double r = rint(src[i] / two_eb);
            if (fabs(r) > limit) { overflow = 1; r = 0.0; }
            q[i] = (int64_t)r;
        }
    }
    if (overflow) return 1;
    for (int64_t b = 0; b < nblocks; b++) {
        int64_t* q = out + b * bs;
        const int64_t s0 = b1 * b2;
        /* axis 0 */
        for (int64_t i = b0 - 1; i >= 1; i--)
            for (int64_t j = 0; j < s0; j++)
                q[i * s0 + j] -= q[(i - 1) * s0 + j];
        /* axis 1 */
        if (b1 > 1)
            for (int64_t i = 0; i < b0; i++)
                for (int64_t j = b1 - 1; j >= 1; j--)
                    for (int64_t k = 0; k < b2; k++)
                        q[i * s0 + j * b2 + k] -= q[i * s0 + (j - 1) * b2 + k];
        /* axis 2 */
        if (b2 > 1)
            for (int64_t i = 0; i < b0 * b1; i++)
                for (int64_t k = b2 - 1; k >= 1; k--)
                    q[i * b2 + k] -= q[i * b2 + k - 1];
    }
    return 0;
}

/* Inverse: iterated cumulative sum (in place), same axis order. */
API void repro_lorenzo_reconstruct(
    int64_t* q_all, int64_t nblocks, int64_t b0, int64_t b1, int64_t b2)
{
    const int64_t bs = b0 * b1 * b2;
    for (int64_t b = 0; b < nblocks; b++) {
        int64_t* q = q_all + b * bs;
        const int64_t s0 = b1 * b2;
        for (int64_t i = 1; i < b0; i++)
            for (int64_t j = 0; j < s0; j++)
                q[i * s0 + j] += q[(i - 1) * s0 + j];
        if (b1 > 1)
            for (int64_t i = 0; i < b0; i++)
                for (int64_t j = 1; j < b1; j++)
                    for (int64_t k = 0; k < b2; k++)
                        q[i * s0 + j * b2 + k] += q[i * s0 + (j - 1) * b2 + k];
        if (b2 > 1)
            for (int64_t i = 0; i < b0 * b1; i++)
                for (int64_t k = 1; k < b2; k++)
                    q[i * b2 + k] += q[i * b2 + k - 1];
    }
}

/* ---------------- variable-length bit packing ----------------
 * MSB-first concatenation of (code, length) pairs into a zeroed byte
 * buffer; same convention as np.packbits(bitorder="big").  Returns the
 * number of bits written. */
API int64_t repro_pack_varlen(
    const uint64_t* codes, const int64_t* lengths, int64_t n, uint8_t* out)
{
    int64_t bitpos = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t remaining = lengths[i];
        const uint64_t code = codes[i];
        while (remaining > 0) {
            int64_t free_bits = 8 - (bitpos & 7);
            int64_t take = remaining < free_bits ? remaining : free_bits;
            uint64_t chunk = (code >> (remaining - take)) & ((1ULL << take) - 1);
            out[bitpos >> 3] |= (uint8_t)(chunk << (free_bits - take));
            bitpos += take;
            remaining -= take;
        }
    }
    return bitpos;
}

/* Fused table-driven Huffman encode: symbols -> codeword bits, plus the
 * per-chunk bit-offset table the parallel decoder needs.  Callers size
 * `out` with repro_huffman_symbol_bits first. */
API int64_t repro_huffman_symbol_bits(
    const int64_t* symbols, int64_t n, const uint8_t* lengths)
{
    int64_t total = 0;
    for (int64_t i = 0; i < n; i++) total += lengths[symbols[i]];
    return total;
}

API int64_t repro_huffman_encode(
    const int64_t* symbols, int64_t n,
    const uint64_t* codes, const uint8_t* lengths,
    int64_t chunk_size, uint64_t* chunk_offsets, uint8_t* out)
{
    int64_t bitpos = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i % chunk_size == 0) chunk_offsets[i / chunk_size] = (uint64_t)bitpos;
        const int64_t sym = symbols[i];
        int64_t remaining = lengths[sym];
        const uint64_t code = codes[sym];
        while (remaining > 0) {
            int64_t free_bits = 8 - (bitpos & 7);
            int64_t take = remaining < free_bits ? remaining : free_bits;
            uint64_t chunk = (code >> (remaining - take)) & ((1ULL << take) - 1);
            out[bitpos >> 3] |= (uint8_t)(chunk << (free_bits - take));
            bitpos += take;
            remaining -= take;
        }
    }
    return bitpos;
}

/* ---------------- chunk-parallel Huffman decode ----------------
 * Dense-table decode of every chunk; bits past the body read as zero,
 * exactly like the numpy path's zero padding.  Returns 0 on success,
 * 1 for an invalid codeword (table hole), 2 for a bit-length overrun. */
static inline uint64_t peek_bits(
    const uint8_t* p, int64_t nbytes, int64_t pos, int nbits)
{
    uint64_t v = 0;
    const int64_t byte = pos >> 3;
    const int shift = (int)(pos & 7);
    const int need = (nbits + shift + 7) >> 3;
    for (int i = 0; i < need; i++) {
        const uint64_t b = (byte + i < nbytes) ? p[byte + i] : 0;
        v = (v << 8) | b;
    }
    return (v >> ((need << 3) - shift - nbits)) & ((1ULL << nbits) - 1);
}

API int64_t repro_huffman_decode(
    const uint8_t* body, int64_t nbytes,
    const int64_t* chunk_offsets, int64_t nchunks,
    int64_t chunk_size, int64_t n,
    const int64_t* table_sym, const int64_t* table_len,
    int64_t max_len, int64_t total_bits, int64_t* out)
{
    int64_t max_cursor = 0;
    for (int64_t c = 0; c < nchunks; c++) {
        int64_t cursor = chunk_offsets[c];
        const int64_t base = c * chunk_size;
        int64_t count = n - base;
        if (count > chunk_size) count = chunk_size;
        for (int64_t s = 0; s < count; s++) {
            const uint64_t key = peek_bits(body, nbytes, cursor, (int)max_len);
            const int64_t len = table_len[key];
            if (len == 0) return 1;
            out[base + s] = table_sym[key];
            cursor += len;
        }
        if (cursor > max_cursor) max_cursor = cursor;
    }
    return (max_cursor > total_bits) ? 2 : 0;
}

/* ---------------- ZFP: one pass per 4^d block ----------------
 * The fused zfp.encode / zfp.decode kernels.  Each walks the blocks of
 * a C-contiguous field once and keeps one block's state on the stack:
 * edge-clamped gather, common exponent, rint(ldexp()) onto the int64
 * lattice, lifting along numpy axes 1..d, sequency permutation,
 * negabinary, then the seed group-testing coder (blockcodec's
 * encode_block_planes / decode_block_planes) with plane words computed
 * on demand — a plane the bit budget never reaches is never transposed.
 * Bits go through a word-buffered MSB-first writer/reader
 * (np.packbits(bitorder="big") convention), so there is no whole-field
 * intermediate of any kind.
 *
 * Integer steps rely on -fwrapv (see native._CFLAGS): a damaged stream
 * can decode to arbitrary 64-bit coefficients, and numpy's int64
 * arithmetic wraps there too. */
#define ZFP_EBITS 12
#define ZFP_EBIAS 2048
#define ZFP_HEADER_BITS (1 + ZFP_EBITS)
#define ZFP_NBMASK 0xAAAAAAAAAAAAAAAAULL
#define SHL1(v) ((int64_t)((uint64_t)(v) << 1))

static void zfp_fwd_lift(int64_t* p, int s)
{
    int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
    x += w; x >>= 1; w -= x;
    z += y; z >>= 1; y -= z;
    x += z; x >>= 1; z -= x;
    w += y; w >>= 1; y -= w;
    w += y >> 1; y -= w >> 1;
    p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

static void zfp_inv_lift(int64_t* p, int s)
{
    int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
    y += w >> 1; w -= y >> 1;
    y += w; w = SHL1(w); w -= y;
    z += x; x = SHL1(x); x -= z;
    y += z; z = SHL1(z); z -= y;
    w += x; x = SHL1(x); x -= w;
    p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

/* Lift every line of a flat 4^ndim block along the axis of `stride`. */
static void zfp_lift_axis(int64_t* q, int size, int stride, int inverse)
{
    for (int hi = 0; hi < size; hi += 4 * stride)
        for (int lo = 0; lo < stride; lo++) {
            if (inverse) zfp_inv_lift(q + hi + lo, stride);
            else zfp_fwd_lift(q + hi + lo, stride);
        }
}

/* frexp's exponent of a positive finite double: a < 2^e. */
static inline int zfp_exponent(double a)
{
    uint64_t b;
    memcpy(&b, &a, 8);
    int e = (int)(b >> 52) & 0x7FF;
    if (e) return e - 1022;
    frexp(a, &e); /* subnormal */
    return e;
}

/* x * 2^s, as ldexp(x, s) rounds it: one exact multiply by `scale`
 * while 2^s is a normal double (every block with a sane exponent),
 * ldexp itself when zfp_scale() returned 0. */
static inline double zfp_scale(int s)
{
    const uint64_t b = (uint64_t)(s + 1023) << 52;
    double d = 0.0;
    if (s >= -1022 && s <= 1023) memcpy(&d, &b, 8);
    return d;
}
#define ZFP_LDEXP(x, s, scale) ((scale) != 0.0 ? (x) * (scale) : ldexp((x), (s)))

/* A field seen as (n0, n1, n2) with unused leading axes of extent 1,
 * cut into blocks of (e0, e1, e2) where e is 4 on real axes, else 1;
 * `at` is the grid coordinate of the current block (C order). */
typedef struct {
    int64_t n[3], grid[3], at[3];
    int ext[3], size;
    int64_t nblocks;
} zfp_geom;

static zfp_geom zfp_geometry(int ndim, const int64_t* shape)
{
    zfp_geom g;
    g.size = 1;
    g.nblocks = 1;
    for (int a = 0; a < 3; a++) {
        const int real = a >= 3 - ndim;
        g.n[a] = real ? shape[a - (3 - ndim)] : 1;
        g.ext[a] = real ? 4 : 1;
        g.grid[a] = (g.n[a] + g.ext[a] - 1) / g.ext[a];
        g.at[a] = 0;
        g.size *= g.ext[a];
        g.nblocks *= g.grid[a];
    }
    return g;
}

/* Flat element offsets of the current block's cells along each axis;
 * cells past the field edge clamp to the last valid one (np.pad
 * mode="edge") and are flagged in `inside`. */
static void zfp_block_offsets(
    const zfp_geom* g, int64_t off[3][4], int inside[3][4])
{
    int64_t stride = 1;
    for (int a = 2; a >= 0; a--) {
        for (int i = 0; i < g->ext[a]; i++) {
            const int64_t idx = g->at[a] * g->ext[a] + i;
            inside[a][i] = idx < g->n[a];
            off[a][i] = (inside[a][i] ? idx : g->n[a] - 1) * stride;
        }
        stride *= g->n[a];
    }
}

static void zfp_next_block(zfp_geom* g)
{
    for (int a = 2; a >= 0; a--) {
        if (++g->at[a] < g->grid[a]) return;
        g->at[a] = 0;
    }
}

static inline int64_t zfp_kmin(int64_t kbase, int kslope, int e, int planes)
{
    const int64_t k = kbase - (kslope ? e : 0);
    return k < 0 ? 0 : (k > planes ? planes : k);
}

static inline uint64_t zfp_rev64(uint64_t x)
{
    x = ((x >> 1) & 0x5555555555555555ULL) | ((x & 0x5555555555555555ULL) << 1);
    x = ((x >> 2) & 0x3333333333333333ULL) | ((x & 0x3333333333333333ULL) << 2);
    x = ((x >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((x & 0x0F0F0F0F0F0F0F0FULL) << 4);
    return __builtin_bswap64(x);
}

/* MSB-first bit writer: up to 7 pending bits between calls. */
typedef struct { uint8_t* out; int64_t pos; uint64_t acc; int n; } zfp_bw;

static inline void bw_put(zfp_bw* w, uint64_t v, int n) /* n <= 32 */
{
    w->acc = (w->acc << n) | v;
    w->n += n;
    while (w->n >= 8) {
        w->n -= 8;
        w->out[w->pos++] = (uint8_t)(w->acc >> w->n);
    }
}

static inline void bw_zeros(zfp_bw* w, int64_t n)
{
    for (; n > 32; n -= 32) bw_put(w, 0, 32);
    bw_put(w, 0, (int)n);
}

/* Returns the number of bits written.  `out` needs room for
 * nblocks * maxbits bits (fixed rate) or nblocks times the worst case
 * HEADER + planes * (2 * size + 1) bits (see native.zfp_encode). */
API int64_t repro_zfp_encode(
    const void* data, int is_f32, int ndim, const int64_t* shape,
    const int64_t* perm, int planes, int64_t maxbits,
    int64_t kbase, int kslope,
    uint8_t* out, uint64_t* offsets, int64_t* used_bits, uint8_t* nonzero)
{
    zfp_geom g = zfp_geometry(ndim, shape);
    const int size = g.size;
    zfp_bw w = {out, 0, 0, 0};
    for (int64_t b = 0; b < g.nblocks; b++, zfp_next_block(&g)) {
        offsets[b] = (uint64_t)(w.pos * 8 + w.n);
        int64_t off[3][4];
        int inside[3][4];
        zfp_block_offsets(&g, off, inside);
        double v[64];
        double amax = 0.0;
        int c = 0;
        for (int i = 0; i < g.ext[0]; i++)
            for (int j = 0; j < g.ext[1]; j++)
                for (int k = 0; k < g.ext[2]; k++) {
                    const int64_t at = off[0][i] + off[1][j] + off[2][k];
                    const double x = is_f32 ? (double)((const float*)data)[at]
                                            : ((const double*)data)[at];
                    if (fabs(x) > amax) amax = fabs(x);
                    v[c++] = x;
                }
        nonzero[b] = amax > 0.0;
        used_bits[b] = 0;
        if (!nonzero[b]) { /* '0' flag (+ fixed-rate zero padding) */
            bw_zeros(&w, maxbits > 0 ? maxbits : 1);
            continue;
        }
        const int e = zfp_exponent(amax);
        const double scale = zfp_scale(planes - 2 - e);
        int64_t q[64];
        for (int i = 0; i < size; i++)
            q[i] = (int64_t)rint(ZFP_LDEXP(v[i], planes - 2 - e, scale));
        for (int stride = size / 4; stride >= 1; stride /= 4)
            zfp_lift_axis(q, size, stride, 0);
        uint64_t u[64];
        for (int i = 0; i < size; i++)
            u[i] = ((uint64_t)q[perm[i]] + ZFP_NBMASK) ^ ZFP_NBMASK;

        /* above[i]: OR of u[i..] — plane k only has bits below the
         * first i with above[i] >> k == 0.  Sequency order puts the small
         * coefficients last, so the top planes (all a tight budget
         * reaches) transpose a short prefix. */
        uint64_t above[65];
        above[size] = 0;
        for (int i = size - 1; i >= 0; i--)
            above[i] = above[i + 1] | u[i];
        int reach = 0;

        bw_put(&w, 1, 1);
        bw_put(&w, (uint64_t)(e + ZFP_EBIAS), ZFP_EBITS);
        const int64_t budget =
            maxbits > 0 ? maxbits - ZFP_HEADER_BITS : INT64_MAX;
        const int64_t kmin = zfp_kmin(kbase, kslope, e, planes);
        int64_t bits = budget;
        int n = 0;
        for (int64_t k = planes - 1; k >= kmin && bits; k--) {
            uint64_t x = 0;
            while (above[reach] >> k) reach++;
            for (int i = 0; i < reach; i++)
                x |= ((u[i] >> k) & 1) << i;
            /* value bits of the already-significant coefficients, LSB
             * first (zfp's stream_write_bits order) */
            const int m = n < bits ? n : (int)bits;
            if (m) {
                const uint64_t r = zfp_rev64(x) >> (64 - m);
                if (m > 32) bw_put(&w, r >> 32, m - 32);
                bw_put(&w, r & 0xFFFFFFFFULL, m > 32 ? 32 : m);
                bits -= m;
                x = m >= 64 ? 0 : x >> m;
            }
            /* group tests: per group, the seed loop emits the test bit
             * then run = min(j + 1, size - 1 - n, bits) bits — zeros up
             * to and (iff run == j + 1) including x's lowest set bit j */
            while (n < size && bits) {
                bits--;
                bw_put(&w, x != 0, 1);
                if (!x) break;
                const int j = __builtin_ctzll(x);
                int64_t run = j + 1;
                if (run > size - 1 - n) run = size - 1 - n;
                if (run > bits) run = bits;
                const int one = run == j + 1;
                bw_zeros(&w, run - one);
                if (one) bw_put(&w, 1, 1);
                bits -= run;
                const int adv = (int)run + !one;
                x = adv >= 64 ? 0 : x >> adv;
                n += adv;
            }
        }
        used_bits[b] = ZFP_HEADER_BITS + (budget - bits);
        if (maxbits > 0) bw_zeros(&w, bits);
    }
    const int64_t total = w.pos * 8 + w.n;
    offsets[g.nblocks] = (uint64_t)total;
    if (w.n) out[w.pos] = (uint8_t)(w.acc << (8 - w.n));
    return total;
}

/* MSB-first bit reader: `buf` holds the next `avail` stream bits from
 * its top bit down; bits past the body read as zero. */
typedef struct {
    const uint8_t* p;
    int64_t nbytes, pos;
    uint64_t buf;
    int avail;
} zfp_br;

static void br_refill(zfp_br* r)
{
    const int64_t byte = r->pos >> 3;
    uint64_t v = 0;
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (byte + 8 <= r->nbytes) {
        memcpy(&v, r->p + byte, 8);
        v = __builtin_bswap64(v);
    } else
#endif
    for (int i = 0; i < 8; i++)
        v = (v << 8) | (byte + i < r->nbytes ? r->p[byte + i] : 0);
    r->buf = v << (r->pos & 7);
    r->avail = 64 - (int)(r->pos & 7);
}

static inline void br_skip(zfp_br* r, int n) /* n <= avail, n < 64 */
{
    r->buf <<= n;
    r->avail -= n;
    r->pos += n;
}

static inline uint64_t br_get(zfp_br* r, int n) /* 1 <= n <= 32 */
{
    if (r->avail < n) br_refill(r);
    const uint64_t v = r->buf >> (64 - n);
    br_skip(r, n);
    return v;
}

/* Mirror of repro_zfp_encode.  `offsets` (nblocks + 1 bit offsets) is
 * NULL for fixed-rate streams, where block b starts at b * maxbits.
 * Reads never pass a block's span, and the caller has checked the last
 * span against the body length.  Returns 0, or 1 for a non-increasing
 * offset table, 2 for a nonzero block shorter than its header. */
API int64_t repro_zfp_decode(
    const uint8_t* body, int64_t nbytes, const int64_t* offsets,
    int64_t maxbits, void* out, int is_f32, int ndim, const int64_t* shape,
    const int64_t* perm, int planes, int64_t kbase, int kslope)
{
    zfp_geom g = zfp_geometry(ndim, shape);
    const int size = g.size;
    zfp_br r = {body, nbytes, 0, 0, 0};
    for (int64_t b = 0; b < g.nblocks; b++, zfp_next_block(&g)) {
        r.pos = offsets ? offsets[b] : b * maxbits;
        r.avail = 0;
        const int64_t span = offsets ? offsets[b + 1] - r.pos : maxbits;
        if (span <= 0 || r.pos < 0) return 1;
        double v[64];
        if (!br_get(&r, 1)) {
            for (int i = 0; i < size; i++) v[i] = 0.0;
        } else {
            if (span < ZFP_HEADER_BITS) return 2;
            const int e = (int)br_get(&r, ZFP_EBITS) - ZFP_EBIAS;
            const int64_t kmin = zfp_kmin(kbase, kslope, e, planes);
            int64_t bits = span - ZFP_HEADER_BITS;
            uint64_t u[64] = {0};
            int n = 0;
            for (int64_t k = planes - 1; k >= kmin && bits; k--) {
                const int m = n < bits ? n : (int)bits;
                bits -= m;
                uint64_t x = 0;
                for (int got = 0; got < m; got += 32) {
                    const int take = m - got < 32 ? m - got : 32;
                    x |= (zfp_rev64(br_get(&r, take)) >> (64 - take)) << got;
                }
                while (n < size && bits) {
                    bits--;
                    if (!br_get(&r, 1)) break;
                    /* zeros up to the next coefficient's 1 bit, which is
                     * implicit once size-1 is reached or bits run out */
                    int64_t limit = size - 1 - n;
                    if (limit > bits) limit = bits;
                    int zeros = 0, one = 0;
                    while (zeros < limit && !one) {
                        if (!r.avail) br_refill(&r);
                        int take = (int)limit - zeros;
                        if (take > r.avail) take = r.avail;
                        if (r.buf >> (64 - take)) {
                            take = __builtin_clzll(r.buf);
                            one = 1;
                        }
                        zeros += take;
                        br_skip(&r, take + one);
                    }
                    bits -= zeros + one;
                    n += zeros;
                    x |= 1ULL << n;
                    n++;
                }
                for (; x; x &= x - 1)
                    u[__builtin_ctzll(x)] |= 1ULL << k;
            }
            int64_t q[64];
            for (int i = 0; i < size; i++)
                q[perm[i]] = (int64_t)((u[i] ^ ZFP_NBMASK) - ZFP_NBMASK);
            for (int stride = 1; stride < size; stride *= 4)
                zfp_lift_axis(q, size, stride, 1);
            const double scale = zfp_scale(e - (planes - 2));
            for (int i = 0; i < size; i++)
                v[i] = ZFP_LDEXP((double)q[i], e - (planes - 2), scale);
        }
        int64_t off[3][4];
        int inside[3][4];
        zfp_block_offsets(&g, off, inside);
        int c = 0;
        for (int i = 0; i < g.ext[0]; i++)
            for (int j = 0; j < g.ext[1]; j++)
                for (int k = 0; k < g.ext[2]; k++, c++) {
                    if (!(inside[0][i] && inside[1][j] && inside[2][k])) continue;
                    const int64_t at = off[0][i] + off[1][j] + off[2][k];
                    if (is_f32) ((float*)out)[at] = (float)v[c];
                    else ((double*)out)[at] = v[c];
                }
    }
    return 0;
}
"""
