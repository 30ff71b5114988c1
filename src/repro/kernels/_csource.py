"""C source for the compiled kernel tier (:mod:`repro.kernels.native`).

The source is embedded as a string so the package needs no build step
and no package-data plumbing: the first native-tier call compiles it
with the system C compiler into a cached shared object (see
:mod:`repro.kernels.native`).  Every function transcribes the staged
reference for its kernel — bit-for-bit, including rounding (``rint``
under the default round-to-nearest-even mode matches ``np.rint``), the
order of every floating-point sum in the SZ predictors and the exact
group-testing control flow of the ZFP coder (tabulated from that loop
for 4-value blocks) — so the parity matrix in
``tests/test_fastpath_equivalence.py`` holds by construction.
"""

C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

#define API __attribute__((visibility("default")))
/* Inlined even where -O2 would not: a bit reader's state stays in
 * registers, and a literal size argument specialises the body. */
#define INLINE static inline __attribute__((always_inline))
/* -O2 keeps even a 4-trip loop rolled, and the arrays it indexes in memory. */
#define EACH_VALUE(i, count) _Pragma("GCC unroll 4") for (int i = 0; i < (count); i++)
/* body(args..., a, b or c as ndim is 1, 2 or 3): a literal last argument,
 * so the compiler builds one copy of the body per dimensionality. */
#define BY_NDIM(a, b, c, body, ...) (ndim == 1 ? body(__VA_ARGS__, a) \
    : ndim == 2 ? body(__VA_ARGS__, b) : body(__VA_ARGS__, c))

/* (int64_t)rint(x) for |x| < 2^51: adding 1.5 * 2^52 rounds x to an
 * integer the way rint does (round to nearest even; the ulp there is 1)
 * and leaves it in the low mantissa bits. */
#define RINT_SMALL_LIMIT 2251799813685248.0 /* 2^51 */
static inline int64_t rint_small(double x)
{
    const double r = x + 6755399441055744.0; /* 1.5 * 2^52 */
    int64_t b;
    memcpy(&b, &r, 8);
    return b - 0x4338000000000000LL;
}

/* ---------------- MSB-first bit streams ----------------
 * np.packbits(bitorder="big") convention.  Writer: up to 31 pending bits
 * between calls, stored four bytes at a time; bw_bits() is the stream
 * position, bw_finish() writes the tail (zero-padded to a byte). */
typedef struct { uint8_t* out; int64_t pos; uint64_t acc; int n; } bit_writer;

static inline void bw_put(bit_writer* w, uint64_t v, int n) /* n <= 32 */
{
    w->acc = (w->acc << n) | v;
    w->n += n;
    if (w->n >= 32) {
        w->n -= 32;
        const uint32_t word = __builtin_bswap32((uint32_t)(w->acc >> w->n));
        memcpy(w->out + w->pos, &word, 4);
        w->pos += 4;
    }
}

static inline int64_t bw_bits(const bit_writer* w) { return w->pos * 8 + w->n; }

static int64_t bw_finish(bit_writer* w)
{
    const int64_t total = bw_bits(w);
    for (; w->n >= 8; w->n -= 8)
        w->out[w->pos++] = (uint8_t)(w->acc >> (w->n - 8));
    if (w->n) w->out[w->pos] = (uint8_t)(w->acc << (8 - w->n));
    return total;
}

static inline void bw_zeros(bit_writer* w, int64_t n)
{
    for (; n > 32; n -= 32) bw_put(w, 0, 32);
    bw_put(w, 0, (int)n);
}

/* Reader: `buf` holds the next `avail` stream bits from
 * its top bit down; bits past the body read as zero. */
typedef struct {
    const uint8_t* p;
    int64_t nbytes, pos;
    uint64_t buf;
    int avail;
} bit_reader;

INLINE void br_refill(bit_reader* r)
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

static inline void br_skip(bit_reader* r, int n) /* n <= avail, n < 64 */
{
    r->buf <<= n;
    r->avail -= n;
    r->pos += n;
}

static inline uint64_t br_get(bit_reader* r, int n) /* 1 <= n <= 32 */
{
    if (r->avail < n) br_refill(r);
    const uint64_t v = r->buf >> (64 - n);
    br_skip(r, n);
    return v;
}

/* ---------------- block geometry (SZ and ZFP) ----------------
 * A field seen as (n0, n1, n2) with unused leading axes of extent 1,
 * cut into blocks of (e0, e1, e2) where e is `side` on real axes, else
 * 1; `at` is the grid coordinate of the current block (C order). */
#define BLK_MAX_SIDE 255

typedef struct {
    int64_t n[3], grid[3], at[3];
    int ext[3], size;
    int64_t nblocks;
} blk_geom;

static blk_geom blk_geometry(int ndim, const int64_t* shape, int side)
{
    blk_geom g;
    g.size = 1;
    g.nblocks = 1;
    for (int a = 0; a < 3; a++) {
        const int real = a >= 3 - ndim;
        g.n[a] = real ? shape[a - (3 - ndim)] : 1;
        g.ext[a] = real ? side : 1;
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
static void blk_offsets(
    const blk_geom* g, int64_t off[3][BLK_MAX_SIDE], int inside[3][BLK_MAX_SIDE])
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

static void blk_next(blk_geom* g)
{
    for (int a = 2; a >= 0; a--) {
        if (++g->at[a] < g->grid[a]) return;
        g->at[a] = 0;
    }
}

/* blk_next with `ndim` a literal, for the encoders: a 1-D field's blocks
 * are one row, so a step is one increment kept in a register. */
INLINE void blk_step(blk_geom* g, const int ndim)
{
    if (ndim == 1) g->at[2]++;
    else blk_next(g);
}

/* The current block's cells as doubles, C order, edge-clamped (np.pad
 * mode="edge"), for the SZ and ZFP encoders.  `is_f32` and `ndim` are
 * literals, and so is `side` for ZFP (4), so every loop bound is one.
 * A block row inside the field along the last axis is one contiguous
 * run, and a 1-D block needs no offset tables. */
INLINE void blk_gather(
    const blk_geom* g, const void* data, const int is_f32, const int ndim,
    const int side, double* v)
{
#define BLK_AT(at) (is_f32 ? (double)((const float*)data)[at] : ((const double*)data)[at])
    const int64_t k0 = g->at[2] * side, last = g->n[2] - 1;
    int64_t off[3][BLK_MAX_SIDE];
    int inside[3][BLK_MAX_SIDE];
    if (ndim > 1) blk_offsets(g, off, inside);
    int64_t c = 0;
    for (int i = 0; i < (ndim > 2 ? side : 1); i++)
        for (int j = 0; j < (ndim > 1 ? side : 1); j++, c += side) {
            const int64_t row = ndim > 1 ? off[0][i] + off[1][j] : 0;
            if (k0 + side <= g->n[2])
                for (int k = 0; k < side; k++) v[c + k] = BLK_AT(row + k0 + k);
            else
                for (int k = 0; k < side; k++)
                    v[c + k] = BLK_AT(row + (k0 + k < last ? k0 + k : last));
        }
#undef BLK_AT
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

/* ---------------- canonical Huffman ----------------
 * Symbols arrive as uint16 (`wide` == 0, what sz.encode emits) or int64. */
#define HUFF_MAX_LEN 24
static inline int64_t huff_symbol(const void* symbols, int wide, int64_t i)
{
    return wide ? ((const int64_t*)symbols)[i]
                : (int64_t)((const uint16_t*)symbols)[i];
}

/* Fused table-driven encode: symbols -> codeword bits (lengths <= 24),
 * plus the per-chunk bit-offset table the parallel decoder needs.
 * Returns the stream length in bits; `out` holds n * max(lengths) bits. */
API int64_t repro_huffman_encode(
    const void* symbols, int wide, int64_t n,
    const uint64_t* codes, const uint8_t* lengths,
    int64_t chunk_size, uint64_t* chunk_offsets, uint8_t* out)
{
    bit_writer w = {out, 0, 0, 0};
    for (int64_t base = 0; base < n; base += chunk_size) {
        chunk_offsets[base / chunk_size] = (uint64_t)bw_bits(&w);
        const int64_t end = base + chunk_size < n ? base + chunk_size : n;
        for (int64_t i = base; i < end; i++) {
            const int64_t sym = huff_symbol(symbols, wide, i);
            bw_put(&w, codes[sym], lengths[sym]);
        }
    }
    return bw_finish(&w);
}

/* Two-level decode table, built from the code lengths.  Level one is
 * keyed by the top w = min(max_len, HUFF_L1_BITS) stream bits: 2^w
 * entries, 16 KiB, so the load every symbol waits on stays in L1 (12
 * bits measured best: at 11, HACC's near-flat position alphabets take
 * level two for 2-3 % of their symbols, each a mispredicted branch).  Its
 * entries are symbol << 5 | code length (0: no codeword), or for a
 * prefix of codes longer than w, k << 5 | HUFF_LINK: block k of level
 * two, 2^(max_len - w) entries keyed by the next max_len - w bits.
 * Canonical codes taken in (length, symbol) order fill the code space
 * from 0 upwards, so the codes longer than w follow all shorter ones:
 * their prefixes are one run of level-one keys starting at a multiple
 * of the level-two block size, and level two is one block per key of
 * that run.  Returns the entry count, -1 for a length past max_len,
 * -2 for a Kraft sum above 1; the layout of HuffmanCodec's dense
 * 2^max_len table (the numpy tier's) is the same with w = max_len. */
#define HUFF_L1_BITS 12
#define HUFF_LINK 31
API const int repro_huffman_l1_bits = HUFF_L1_BITS;

typedef struct { int w, sub; int64_t first_link, nlinks, count[HUFF_MAX_LEN + 1]; } huff_layout;

static int64_t huff_plan(
    const uint8_t* lengths, int64_t alphabet, int max_len, huff_layout* t)
{
    memset(t->count, 0, sizeof t->count);
    for (int64_t s = 0; s < alphabet; s++) {
        if (lengths[s] > max_len) return -1;
        t->count[lengths[s]]++;
    }
    t->w = max_len < HUFF_L1_BITS ? max_len : HUFF_L1_BITS;
    t->sub = max_len - t->w;
    int64_t used = 0, short_end = 0; /* code space, in max_len-bit keys */
    for (int l = 1; l <= max_len; l++) {
        used += t->count[l] << (max_len - l);
        if (l == t->w) short_end = used;
    }
    if (used > (int64_t)1 << max_len) return -2;
    t->first_link = short_end >> t->sub;
    t->nlinks = (used - short_end + ((int64_t)1 << t->sub) - 1) >> t->sub;
    return ((int64_t)1 << t->w) + (t->nlinks << t->sub);
}

API int64_t repro_huffman_table_size(const uint8_t* lengths, int64_t alphabet, int max_len)
{
    huff_layout t;
    return huff_plan(lengths, alphabet, max_len, &t);
}

/* `table` has the entry count huff_plan returned. */
static void huff_fill(
    const uint8_t* lengths, int64_t alphabet, int max_len, const huff_layout* t,
    uint32_t* table)
{
    const int w = t->w, sub = t->sub;
    memset(table, 0, (((size_t)1 << w) + ((size_t)t->nlinks << sub)) * 4);
    uint32_t* level2 = table + ((int64_t)1 << w);
    for (int64_t k = 0; k < t->nlinks; k++)
        table[t->first_link + k] = (uint32_t)(k << 5 | HUFF_LINK);
    int64_t next[HUFF_MAX_LEN + 1], code = 0;
    for (int l = 1; l <= max_len; l++)
        next[l] = code = (code + (l > 1 ? t->count[l - 1] : 0)) << 1;
    for (int64_t s = 0; s < alphabet; s++) {
        const int l = lengths[s];
        if (!l) continue;
        const int64_t key = next[l]++ << (max_len - l); /* max_len-bit key */
        const uint32_t entry = (uint32_t)(s << 5 | l);
        uint32_t* at = l <= w ? table + (key >> sub)
            : level2 + (((key >> sub) - t->first_link) << sub) + (key & ((1 << sub) - 1));
        const int64_t span = (int64_t)1 << (l <= w ? w - l : max_len - l);
        for (int64_t i = 0; i < span; i++) at[i] = entry;
    }
}

/* One symbol at bit `*pos`: the next stream bits are read afresh for
 * every symbol (bits past the body read as zero), so a lane is a cursor
 * and nothing more.  Returns the symbol's entry (length 0: no codeword)
 * and advances the cursor past it. */
INLINE uint32_t huff_next(
    const uint8_t* body, int64_t nbytes, int64_t* pos,
    const uint32_t* table, int w, int sub)
{
    bit_reader r = {body, nbytes, *pos, 0, 0};
    br_refill(&r);
    uint32_t entry = table[r.buf >> (64 - w)];
    if ((entry & 31) == HUFF_LINK) /* level two follows level one's 2^w entries */
        entry = table[((int64_t)1 << w) + ((entry >> 5 << sub) | (r.buf << w >> (64 - sub)))];
    *pos += entry & 31;
    return entry;
}

/* Chunk-parallel decode.  Each symbol waits on the previous one's table
 * load, so HUFF_LANES chunks are decoded side by side to overlap those
 * waits; a group of full chunks runs with the lane count a literal, its
 * cursors in registers.  Symbols are stored as uint16 (wide == 0) or
 * int64.  Returns 0 on success, 1 for an invalid codeword, 2 for a
 * bit-length overrun. */
#define HUFF_LANES 8

INLINE int64_t huff_decode_chunks(
    const uint8_t* body, int64_t nbytes,
    const int64_t* chunk_offsets, int64_t nchunks, int64_t chunk_size, int64_t n,
    const uint32_t* table, int w, int sub, int64_t total_bits,
    void* out, const int wide)
{
#define HUFF_STORE(at, entry) \
    if (wide) ((int64_t*)out)[at] = (entry) >> 5; \
    else ((uint16_t*)out)[at] = (uint16_t)((entry) >> 5)
    int64_t max_cursor = 0;
    for (int64_t c = 0; c < nchunks; c += HUFF_LANES) {
        int64_t pos[HUFF_LANES] = {0}, count[HUFF_LANES] = {0}, most = 0;
        int lanes = 0;
        for (; lanes < HUFF_LANES && c + lanes < nchunks; lanes++) {
            const int64_t left = n - (c + lanes) * chunk_size;
            pos[lanes] = chunk_offsets[c + lanes];
            count[lanes] = left < chunk_size ? left : chunk_size;
            if (count[lanes] > most) most = count[lanes];
        }
        if (lanes == HUFF_LANES && count[HUFF_LANES - 1] == chunk_size) {
            for (int64_t s = 0; s < chunk_size; s++)
                _Pragma("GCC unroll 8") for (int l = 0; l < HUFF_LANES; l++) {
                    const uint32_t entry = huff_next(body, nbytes, &pos[l], table, w, sub);
                    if (!(entry & 31)) return 1;
                    HUFF_STORE((c + l) * chunk_size + s, entry);
                }
        } else {
            for (int64_t s = 0; s < most; s++)
                for (int l = 0; l < lanes; l++) {
                    if (s >= count[l]) continue; /* the short last chunk */
                    const uint32_t entry = huff_next(body, nbytes, &pos[l], table, w, sub);
                    if (!(entry & 31)) return 1;
                    HUFF_STORE((c + l) * chunk_size + s, entry);
                }
        }
        for (int l = 0; l < lanes; l++)
            if (pos[l] > max_cursor) max_cursor = pos[l];
    }
    return (max_cursor > total_bits) ? 2 : 0;
#undef HUFF_STORE
}

/* huffman.decode: builds the table from `lengths` into `table` (sized
 * by repro_huffman_table_size, which has vetted the lengths), then
 * decodes. */
API int64_t repro_huffman_decode(
    const uint8_t* body, int64_t nbytes,
    const int64_t* chunk_offsets, int64_t nchunks, int64_t chunk_size, int64_t n,
    const uint8_t* lengths, int64_t alphabet, int max_len, int64_t total_bits,
    uint32_t* table, int wide, void* out)
{
    huff_layout t;
    huff_plan(lengths, alphabet, max_len, &t);
    huff_fill(lengths, alphabet, max_len, &t, table);
    if (wide)
        return huff_decode_chunks(body, nbytes, chunk_offsets, nchunks, chunk_size, n,
                                  table, t.w, t.sub, total_bits, out, 1);
    return huff_decode_chunks(body, nbytes, chunk_offsets, nchunks, chunk_size, n,
                              table, t.w, t.sub, total_bits, out, 0);
}

/* Package-merge over the n >= 2 sorted leaf weights `w`
 * (huffman._package_merge_counts).  Levels max_len down to 1 each merge
 * the leaves with the packages paired from the level before, a leaf
 * first on equal weights (numpy's stable argsort of leaves, then
 * packages); leaf[] flags the merged items that are leaves.  Level 1
 * keeps its 2n - 2 cheapest items, a kept package keeps the two items it
 * was paired from (again a prefix), so the kept leaves of each level are
 * the first taken[level] sorted leaves.  `work` has 3n cells. */
static void huff_package_merge(
    const int64_t* w, int64_t n, int max_len, int64_t* work, uint8_t* leaf,
    int64_t* taken)
{
    int64_t *pkg = work, *merged = work + n, npkg = 0;
    for (int lv = 0; lv < max_len; lv++) {
        uint8_t* is_leaf = leaf + lv * 2 * n;
        int64_t a = 0, b = 0, m = 0;
        for (; a < n || b < npkg; m++) {
            is_leaf[m] = b == npkg || (a < n && w[a] <= pkg[b]);
            merged[m] = is_leaf[m] ? w[a++] : pkg[b++];
        }
        npkg = m / 2;
        for (int64_t j = 0; j < npkg; j++) pkg[j] = merged[2 * j] + merged[2 * j + 1];
    }
    for (int64_t lv = max_len - 1, keep = 2 * n - 2; lv >= 0; lv--) {
        taken[lv] = 0;
        for (int64_t i = 0; i < keep; i++) taken[lv] += leaf[lv * 2 * n + i];
        keep = 2 * (keep - taken[lv]);
    }
}

/* huffman.code: huffman_lengths, then canonical_codes.  The used
 * symbols sorted by (weight, symbol), the two-queue merge (a leaf first
 * on equal weights), package-merge when that tree is deeper than
 * max_len (1..HUFF_MAX_LEN), then codes assigned in (length, symbol)
 * order.  The caller has checked that the n used symbols fit (n <=
 * 2^max_len); `lengths` and `codes` arrive zeroed, and `scratch` holds 7n
 * int64 then max_len * 2n bytes. */
API void repro_huffman_code(
    const int64_t* freqs, int64_t alphabet, int max_len, int64_t n,
    void* scratch, uint8_t* lengths, uint64_t* codes)
{
    int64_t *sym = scratch, *wt = sym + n, *parent = wt + 2 * n, *tmp = parent + 2 * n;
    for (int64_t s = 0, i = 0; s < alphabet; s++)
        if (freqs[s] > 0) sym[i++] = s;
    for (int64_t width = 1; width < n; width *= 2) { /* stable merge sort */
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            const int64_t mid = lo + width < n ? lo + width : n;
            const int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            for (int64_t a = lo, b = mid, o = lo; o < hi; o++)
                tmp[o] = b == hi || (a < mid && freqs[sym[a]] <= freqs[sym[b]])
                    ? sym[a++] : sym[b++];
        }
        memcpy(sym, tmp, n * sizeof(int64_t));
    }
    for (int64_t i = 0; i < n; i++) wt[i] = freqs[sym[i]];
    for (int64_t node = n, leaf = 0, merged = n; node < 2 * n - 1; node++) {
        wt[node] = 0;
        for (int c = 0; c < 2; c++) {
            const int64_t child = leaf < n && (merged == node || wt[leaf] <= wt[merged])
                ? leaf++ : merged++;
            parent[child] = node;
            wt[node] += wt[child];
        }
    }
    int64_t* depth = tmp;
    int64_t deepest = 0;
    if (n) depth[2 * n - 2] = n == 1; /* a lone symbol still takes one bit */
    for (int64_t node = 2 * n - 3; node >= 0; node--)
        depth[node] = depth[parent[node]] + 1;
    for (int64_t i = 0; i < n; i++) {
        lengths[sym[i]] = (uint8_t)depth[i];
        if (depth[i] > deepest) deepest = depth[i];
    }
    if (deepest > max_len && n > 1) {
        int64_t taken[HUFF_MAX_LEN];
        huff_package_merge(wt, n, max_len, parent, (uint8_t*)(tmp + 2 * n), taken);
        for (int64_t i = 0; i < n; i++) {
            int len = 0;
            for (int lv = 0; lv < max_len; lv++) len += i < taken[lv];
            lengths[sym[i]] = (uint8_t)len;
        }
    }
    /* first code of length l: (first[l-1] + count[l-1]) << 1 */
    uint64_t next[HUFF_MAX_LEN + 1], code = 0;
    int64_t count[HUFF_MAX_LEN + 1] = {0};
    for (int64_t s = 0; s < alphabet; s++) count[lengths[s]]++;
    count[0] = 0;
    for (int l = 1; l <= max_len; l++)
        next[l] = code = (code + (uint64_t)count[l - 1]) << 1;
    for (int64_t s = 0; s < alphabet; s++)
        if (lengths[s]) codes[s] = next[lengths[s]]++;
}

/* ---------------- SZ: one pass per side^d block ----------------
 * The fused sz.encode / sz.decode kernels.  Each walks the blocks of a
 * C-contiguous field once with one block of scratch: edge-clamped
 * gather, prequantization onto the 2*eb lattice and the Lorenzo
 * residual (iterated first difference along numpy axes 1..d), the
 * regression fit with float32-truncated coefficients and its residual,
 * the per-block cost estimate and predictor choice, then the
 * escape-coded symbol split with the histogram counted on the way.
 *
 * compressors/sz/staged.py (with predictor.py and quantizer.py) is the
 * specification: every floating-point expression below repeats the
 * reference's operations in the reference's order — products and sums
 * rounded one at a time (hence -ffp-contract=off in native._CFLAGS),
 * accumulations left to right from 0.0 — and whatever numpy computes in
 * an order C cannot repeat arrives as data: the design matrix, its
 * pseudo-inverse and the cost table.  Integer steps wrap (-fwrapv) as
 * numpy's int64 arithmetic does.
 *
 * The encoder's block body takes ndim as a literal (SZ_SIZED), one copy
 * per dimensionality; the decoder has a 1-D body of its own.  Where the
 * encoder departs from the reference's form, it computes the same
 * numbers: the Lorenzo residual is taken during the prequantization
 * (wrapping differences commute), rint of a quotient below 2^51 is one
 * addition (rint_small), and a regression prediction is a block row's
 * constant plus a per-column term, as the design matrix's columns
 * allow. */
#define SZ_LIMIT 4611686018427387904.0 /* 2^62 */
#define SZ_LORENZO 1
#define SZ_REGRESSION 2
#define SZ_SIZED(body, ...) BY_NDIM(1, 2, 3, body, __VA_ARGS__) /* ndim */

/* predictor.estimate_code_bits' term: the numpy-built table for every
 * in-range magnitude (|r| < lut_size exactly when the reference's
 * float64 |r| is), libm log2 (math.log2 in the reference) beyond. */
static inline double sz_cost_term(int64_t r, const double* lut, int64_t lut_size)
{
    if (r > -lut_size && r < lut_size) return lut[r < 0 ? -r : r];
    return 2.0 * log2(1.0 + fabs((double)r)) + 1.0;
}

/* Running sum of a flat (e0, e1, e2) block along each real axis, in
 * place: the inverse of the Lorenzo residual (first differences). */
static void sz_lorenzo_inverse(int64_t* q, const int* ext)
{
    const int64_t e0 = ext[0], e1 = ext[1], e2 = ext[2], s0 = e1 * e2;
    for (int64_t i = 1; i < e0; i++)
        for (int64_t j = 0; j < s0; j++)
            q[i * s0 + j] += q[(i - 1) * s0 + j];
    for (int64_t i = 0; i < e0; i++)
        for (int64_t j = 1; j < e1; j++)
            for (int64_t k = 0; k < e2; k++)
                q[i * s0 + j * e2 + k] += q[i * s0 + (j - 1) * e2 + k];
    for (int64_t i = 0; i < e0 * e1; i++)
        for (int64_t k = 1; k < e2; k++)
            q[i * e2 + k] += q[i * e2 + k - 1];
}

/* ((c0*x0 + c1*x1) + c2*x2) + c3*x3 over one design-matrix row. */
static inline double sz_predict(const double* c, const double* x, int nc)
{
    double p = c[0] * x[0];
    for (int k = 1; k < nc; k++) p += c[k] * x[k];
    return p;
}

/* Regression fit of one block, predictor.regression_fit: coefficient k
 * is the sum of v[i] * pinv[k][i] taken left to right from 0.0, then cut
 * to float32 (`cf`, what the stream stores; `cd` the same as doubles).
 * With `nc` a literal the nc sums are independent register chains. */
INLINE void sz_fit(
    const double* v, const double* pinv, int64_t size, const int nc,
    float* cf, double* cd)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (int64_t i = 0; i < size; i++) {
        a0 += v[i] * pinv[i];
        a1 += v[i] * pinv[size + i];
        if (nc > 2) a2 += v[i] * pinv[2 * size + i];
        if (nc > 3) a3 += v[i] * pinv[3 * size + i];
    }
    const double acc[4] = {a0, a1, a2, a3};
    for (int k = 0; k < nc; k++) {
        cf[k] = (float)acc[k];
        cd[k] = (double)cf[k];
    }
}

/* A cell's residual against its prediction: rint((v - pred) / 2eb),
 * clamped to +-2^62 the way fmax(fmin(r, 2^62), -2^62) does it (a NaN
 * becomes +2^62). */
static inline int64_t sz_reg_residual(double v, double pred, double two_eb)
{
    const double x = (v - pred) / two_eb;
    if (fabs(x) < RINT_SMALL_LIMIT) return rint_small(x);
    double r = rint(x);
    if (!(r <= SZ_LIMIT)) r = SZ_LIMIT;
    else if (r < -SZ_LIMIT) r = -SZ_LIMIT;
    return (int64_t)r;
}

/* The encoder's block body; see repro_sz_encode.  `ndim` is a literal
 * (SZ_SIZED), so nc is a constant and the fit's accumulators and the
 * prediction's coefficients stay in registers.  In the 1-D copy (HACC's
 * particle arrays) block b is elements b*side .. b*side+side-1: the
 * gather is one clamped run and the Lorenzo residual one running
 * difference, taken with the prequantization; no offset tables. */
INLINE int64_t sz_encode_blocks(
    const void* data, int is_f32, const int64_t* shape, int side,
    double two_eb, int predictor, int64_t radius,
    const double* design, const double* pinv,
    const double* cost_lut, int64_t lut_size, void* scratch,
    uint16_t* symbols, int64_t* freqs, int64_t* outliers, int64_t* residual,
    uint8_t* use_reg, float* coefs, int64_t* counts, const int ndim)
{
    blk_geom g = blk_geometry(ndim, shape, side);
    const int64_t size = g.size;
    const int nc = ndim + 1;
    double* v = (double*)scratch;
    int64_t* q = (int64_t*)scratch + size;
    int64_t* rr = (int64_t*)scratch + 2 * size;
    const int e2 = g.ext[2];
    int64_t nout = 0, nreg = 0;
    for (int64_t b = 0; b < g.nblocks; b++, blk_step(&g, ndim)) {
        if (is_f32) blk_gather(&g, data, 1, ndim, side, v);
        else blk_gather(&g, data, 0, ndim, side, v);

        if (predictor != SZ_REGRESSION) {
            /* Prequantization with the Lorenzo residual taken on the way:
             * the first difference along the row, minus the previous row's
             * (2-D), minus the previous plane's result (3-D).  Wrapping
             * int64 differences commute, so this is the reference's three
             * passes; rr holds the previous plane until the fit needs it. */
            int64_t drow[BLK_MAX_SIDE];
            int64_t c = 0;
            for (int i = 0; i < (ndim > 2 ? g.ext[0] : 1); i++)
                for (int j = 0; j < (ndim > 1 ? g.ext[1] : 1); j++) {
                    int64_t prev = 0;
                    for (int k = 0; k < e2; k++, c++) {
                        const double x = v[c] / two_eb;
                        int64_t cur;
                        if (fabs(x) < RINT_SMALL_LIMIT) {
                            cur = rint_small(x);
                        } else {
                            const double r = rint(x);
                            if (fabs(r) > SZ_LIMIT) return 1;
                            cur = (int64_t)r;
                        }
                        int64_t d = cur - prev;
                        prev = cur;
                        if (ndim > 1) {
                            const int64_t along_row = d;
                            if (j) d -= drow[k];
                            drow[k] = along_row;
                        }
                        if (ndim > 2) {
                            const int64_t in_plane = d;
                            if (i) d -= rr[j * e2 + k];
                            rr[j * e2 + k] = in_plane;
                        }
                        q[c] = d;
                    }
                }
        }

        /* The adaptive choice is the reference's full-sum one, made with
         * less work.  Every cost term is >= 1 and rounded addition of
         * nonnegative terms never decreases, so the regression sum is
         * >= size and each partial sum is a lower bound of the whole: the
         * fit is skipped when even `size` loses, and the residuals stop at
         * the first block row whose partial sum loses.  One check per row,
         * not per cell, keeps the loop unserialised. */
        const int adaptive = predictor != SZ_LORENZO && predictor != SZ_REGRESSION;
        const double extra = 32.0 * nc;
        double cost_l = 0.0, cost_r = 0.0, cd[4];
        float cf[4];
        int reg = predictor == SZ_REGRESSION;
        if (adaptive) {
            for (int64_t i = 0; i < size; i++)
                cost_l += sz_cost_term(q[i], cost_lut, lut_size);
            reg = (double)size + extra < cost_l;
        }
        /* The prediction ((c0*1 + c1*x) + c2*y) + c3*z is a row's constant
         * plus last[k]: design columns 0..nc-2 (the intercept and the
         * outer coordinates) do not change along a block row. */
        double last[BLK_MAX_SIDE];
        if (reg) {
            sz_fit(v, pinv, size, nc, cf, cd);
            for (int k = 0; k < e2; k++) last[k] = cd[nc - 1] * design[k * nc + nc - 1];
        }
        for (int64_t row = 0; reg && row < size; row += e2) {
            const double base = sz_predict(cd, design + row * nc, nc - 1);
            for (int k = 0; k < e2; k++)
                rr[row + k] = sz_reg_residual(v[row + k], base + last[k], two_eb);
            if (!adaptive) continue;
            for (int k = 0; k < e2; k++)
                cost_r += sz_cost_term(rr[row + k], cost_lut, lut_size);
            reg = cost_r + extra < cost_l;
        }
        use_reg[b] = (uint8_t)reg;
        if (reg) {
            memcpy(coefs + nreg * nc, cf, nc * sizeof(float));
            nreg++;
        }

        const int64_t* sel = reg ? rr : q;
        if (radius == 0) {
            memcpy(residual + b * size, sel, size * sizeof(int64_t));
            continue;
        }
        uint16_t* sym = symbols + b * size;
        for (int64_t i = 0; i < size; i++) {
            const int64_t r = sel[i];
            int64_t s = 0; /* the escape symbol */
            if (r > -radius && r < radius) s = r + radius;
            else outliers[nout++] = r;
            sym[i] = (uint16_t)s;
            freqs[s]++;
        }
    }
    counts[0] = nout;
    counts[1] = nreg;
    return 0;
}

/* `design` is (size, ndim + 1), `pinv` (ndim + 1, size), `scratch` three
 * blocks of 8-byte cells.  radius > 0: writes `symbols` (one per block
 * cell), adds to the zeroed `freqs` (2 * radius) and lists `outliers`;
 * radius == 0: writes the selected residuals to `residual` instead (the
 * caller derives the radius from them).  `coefs` receives the
 * coefficients of the regression blocks only; counts[0] = outliers,
 * counts[1] = regression blocks.  Returns 1 when a lattice index
 * exceeds 2^62 (prequantize's overflow guard), else 0. */
API int64_t repro_sz_encode(
    const void* data, int is_f32, int ndim, const int64_t* shape, int side,
    double two_eb, int predictor, int64_t radius,
    const double* design, const double* pinv,
    const double* cost_lut, int64_t lut_size, void* scratch,
    uint16_t* symbols, int64_t* freqs, int64_t* outliers, int64_t* residual,
    uint8_t* use_reg, float* coefs, int64_t* counts)
{
    return SZ_SIZED(sz_encode_blocks, data, is_f32, shape, side, two_eb,
                    predictor, radius, design, pinv, cost_lut, lut_size, scratch,
                    symbols, freqs, outliers, residual, use_reg, coefs, counts);
}

/* The residuals of one block: an escape symbol (0) takes the next
 * outlier, while there is one; *nesc counts every escape. */
INLINE void sz_residuals(
    const uint16_t* sym, int64_t size, int64_t radius,
    const int64_t* outliers, int64_t n_outliers, int64_t* nesc, int64_t* r)
{
    for (int64_t i = 0; i < size; i++) {
        if (sym[i] == 0) {
            r[i] = *nesc < n_outliers ? outliers[*nesc] : 0;
            ++*nesc;
        } else {
            r[i] = (int64_t)sym[i] - radius;
        }
    }
}

/* The decoder's body for 1-D fields (HACC's particle arrays): block b
 * is elements b*side .. b*side+side-1, its inverse Lorenzo one running
 * sum, and there are no offset tables. */
INLINE void sz_decode_1d(
    const uint16_t* symbols, int64_t radius,
    const int64_t* outliers, int64_t n_outliers,
    const uint8_t* use_reg, const float* coefs, const double* design,
    double two_eb, int side, void* out, const int is_f32, int64_t len,
    int64_t* nesc)
{
    int64_t nreg = 0;
    for (int64_t base = 0, b = 0; base < len; base += side, b++) {
        const int reg = use_reg[b];
        const double c0 = reg ? (double)coefs[2 * nreg] : 0.0;
        const double c1 = reg ? (double)coefs[2 * nreg + 1] : 0.0;
        nreg += reg;
        const int64_t keep = len - base < side ? len - base : side;
        int64_t q = 0;
        for (int64_t i = 0; i < side; i++) {
            const uint16_t s = symbols[base + i];
            int64_t res = (int64_t)s - radius;
            if (s == 0) {
                res = *nesc < n_outliers ? outliers[*nesc] : 0;
                ++*nesc;
            }
            q = reg ? res : q + res;
            if (i >= keep) continue;
            double x = (double)q * two_eb;
            if (reg) x = (c0 * design[2 * i] + c1 * design[2 * i + 1]) + x;
            if (is_f32) ((float*)out)[base + i] = (float)x;
            else ((double*)out)[base + i] = x;
        }
    }
}

/* Mirror of repro_sz_encode: `coefs` holds the regression blocks'
 * coefficients in block order, `scratch` one block of int64.  Stores
 * the number of escape symbols met in *escapes and returns 1 when it is
 * not n_outliers (the output is then meaningless), else 0. */
API int64_t repro_sz_decode(
    const uint16_t* symbols, int64_t radius,
    const int64_t* outliers, int64_t n_outliers,
    const uint8_t* use_reg, const float* coefs, const double* design,
    double two_eb, int side, void* out, int is_f32, int ndim,
    const int64_t* shape, int64_t* scratch, int64_t* escapes)
{
    if (ndim == 1) {
        int64_t nesc = 0;
        if (is_f32)
            sz_decode_1d(symbols, radius, outliers, n_outliers, use_reg, coefs,
                         design, two_eb, side, out, 1, shape[0], &nesc);
        else
            sz_decode_1d(symbols, radius, outliers, n_outliers, use_reg, coefs,
                         design, two_eb, side, out, 0, shape[0], &nesc);
        *escapes = nesc;
        return nesc != n_outliers;
    }
    blk_geom g = blk_geometry(ndim, shape, side);
    const int64_t size = g.size;
    const int nc = ndim + 1;
    int64_t* r = scratch;
    int64_t nesc = 0, nreg = 0;
    for (int64_t b = 0; b < g.nblocks; b++, blk_next(&g)) {
        sz_residuals(symbols + b * size, size, radius, outliers, n_outliers, &nesc, r);
        const int reg = use_reg[b];
        double cd[4] = {0.0, 0.0, 0.0, 0.0};
        if (reg) {
            for (int k = 0; k < nc; k++) cd[k] = (double)coefs[nreg * nc + k];
            nreg++;
        } else {
            sz_lorenzo_inverse(r, g.ext);
        }
        /* the cells inside the field, a prefix along each axis: one
         * contiguous run of the output per block row */
        int64_t lo[3], keep[3];
        for (int a = 0; a < 3; a++) {
            lo[a] = g.at[a] * g.ext[a];
            keep[a] = g.n[a] - lo[a] < g.ext[a] ? g.n[a] - lo[a] : g.ext[a];
        }
        for (int64_t i = 0; i < keep[0]; i++)
            for (int64_t j = 0; j < keep[1]; j++) {
                const int64_t c = (i * g.ext[1] + j) * g.ext[2];
                const int64_t at = ((lo[0] + i) * g.n[1] + lo[1] + j) * g.n[2] + lo[2];
                double x[BLK_MAX_SIDE];
                for (int64_t k = 0; k < keep[2]; k++) x[k] = (double)r[c + k] * two_eb;
                if (reg)
                    for (int64_t k = 0; k < keep[2]; k++)
                        x[k] = sz_predict(cd, design + (c + k) * nc, nc) + x[k];
                for (int64_t k = 0; k < keep[2]; k++) {
                    if (is_f32) ((float*)out)[at + k] = (float)x[k];
                    else ((double*)out)[at + k] = x[k];
                }
            }
    }
    *escapes = nesc;
    return nesc != n_outliers;
}

/* ---------------- ZFP: one pass per 4^d block ----------------
 * The fused zfp.encode / zfp.decode kernels.  Each walks the blocks of
 * a C-contiguous field once and keeps one block's state on the stack:
 * edge-clamped gather, common exponent, rint(ldexp()) onto the int64
 * lattice, lifting along numpy axes 1..d, sequency permutation,
 * negabinary, then the seed group-testing coder (blockcodec's
 * encode_block_planes / decode_block_planes) on plane words built per
 * plane coded — a plane the bit budget never reaches is never built.
 * The encoder keeps the block's coefficients as byte planes, one byte per
 * coefficient for the current group of 8 planes, and takes a 16- or
 * 64-value plane word 8 coefficients at a time with one multiply.  Bits
 * go through a word-buffered MSB-first writer/reader
 * (np.packbits(bitorder="big") convention), so there is no whole-field
 * intermediate of any kind.
 *
 * One block body per direction takes the block size (4, 16 or 64) as a
 * literal (ZFP_SIZED), so the compiler builds a copy per size; the
 * encoder reads a block with the SZ encoder's blk_gather.  In the
 * 4-value copy (1-D fields: HACC's particle arrays) a plane word is four
 * shifts and a plane's group tests one lookup in the plane4 tables.
 *
 * Integer steps rely on -fwrapv (see native._CFLAGS): a damaged stream
 * can decode to arbitrary 64-bit coefficients, and numpy's int64
 * arithmetic wraps there too. */
#define ZFP_EBITS 12
#define ZFP_EBIAS 2048
#define ZFP_HEADER_BITS (1 + ZFP_EBITS)
#define ZFP_NBMASK 0xAAAAAAAAAAAAAAAAULL
#define SHL1(v) ((int64_t)((uint64_t)(v) << 1))
#define ZFP_SIZED(body, ...) BY_NDIM(4, 16, 64, body, __VA_ARGS__) /* 4^ndim */

INLINE void zfp_fwd_lift(int64_t* p, int s)
{
    int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
    x += w; x >>= 1; w -= x;
    z += y; z >>= 1; y -= z;
    x += z; x >>= 1; z -= x;
    w += y; w >>= 1; y -= w;
    w += y >> 1; y -= w >> 1;
    p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

INLINE void zfp_inv_lift(int64_t* p, int s)
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
INLINE void zfp_lift_axis(int64_t* q, int size, int stride, int inverse)
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

/* Plane s of a group of byte planes as a word: bit i is bit s of bp[i],
 * for i < n (16 or 64), taken 8 bytes at a time, the multiply gathering
 * bit 0 of byte i into bit 56 + i. */
INLINE uint64_t zfp_plane_word(const uint8_t* bp, int n, int s)
{
    uint64_t x = 0;
    for (int i = 0; i < n; i += 8) {
        uint64_t w;
        memcpy(&w, bp + i, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w);
#endif
        x |= (((w >> s) & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56 << i;
    }
    return x;
}

/* The group tests of one plane, the seed loop: per group the test bit,
 * then run = min(j + 1, size - 1 - n, bits) bits — zeros up to and
 * (iff run == j + 1) including x's lowest set bit j.  `x` holds the
 * plane's bits from coefficient n up. */
INLINE void zfp_put_groups(bit_writer* w, int size, int* n, int64_t* bits, uint64_t x)
{
    while (*n < size && *bits) {
        --*bits;
        bw_put(w, x != 0, 1);
        if (!x) break;
        const int j = __builtin_ctzll(x);
        int64_t run = j + 1;
        if (run > size - 1 - *n) run = size - 1 - *n;
        if (run > *bits) run = *bits;
        const int one = run == j + 1;
        bw_zeros(w, run - one);
        if (one) bw_put(w, 1, 1);
        *bits -= run;
        const int adv = (int)run + !one;
        x = adv >= 64 ? 0 : x >> adv;
        *n += adv;
    }
}

/* Mirror of zfp_put_groups: returns `x` with bit i set for each
 * coefficient i found significant. */
INLINE uint64_t zfp_get_groups(bit_reader* r, int size, int* n, int64_t* bits, uint64_t x)
{
    while (*n < size && *bits) {
        --*bits;
        if (!br_get(r, 1)) break;
        /* zeros up to the next coefficient's 1 bit, which is
         * implicit once size-1 is reached or bits run out */
        int64_t limit = size - 1 - *n;
        if (limit > *bits) limit = *bits;
        int zeros = 0, one = 0;
        while (zeros < limit && !one) {
            if (!r->avail) br_refill(r);
            int take = (int)limit - zeros;
            if (take > r->avail) take = r->avail;
            if (r->buf >> (64 - take)) {
                take = __builtin_clzll(r->buf);
                one = 1;
            }
            zeros += take;
            br_skip(r, take + one);
        }
        *bits -= zeros + one;
        *n += zeros;
        x |= 1ULL << *n;
        ++*n;
    }
    return x;
}

/* 4-value planes by table.  With n of 4 coefficients significant, a
 * plane's group tests are at most 7 bits ("1 1" per coefficient 0..2
 * found, "1" for coefficient 3, a closing "0" unless n reaches 4), so an
 * 8-bit budget never binds and one entry holds all the loop does:
 *
 *   plane4_encode[n][x >> n]      = bits | bit count << 8 | new n << 12
 *   plane4_decode[n][next 8 bits] = bit count | new n << 4 | new bits << 8
 *
 * If the budget left covers the count, the budget-limited loop does the
 * same.  If not, it spends the bits there are and the block ends: the
 * encoder writes the entry's first bits, and the decoder runs the loop
 * for that one plane.  Filled by the loops when the library loads;
 * exported for the test suite. */
API uint16_t repro_zfp_plane4_encode[5][16];
API uint16_t repro_zfp_plane4_decode[5][256];

/* The low 4 bits of the index, reversed: value bits are LSB first. */
static const uint8_t zfp_rev4[16] = {0, 8, 4, 12, 2, 10, 6, 14,
                                     1, 9, 5, 13, 3, 11, 7, 15};

__attribute__((constructor)) static void zfp_plane4_tables(void)
{
    for (int n0 = 0; n0 <= 4; n0++) {
        for (int x = 0; x < 16 >> n0; x++) {
            uint8_t sink[4];
            bit_writer w = {sink, 0, 0, 0};
            int n = n0;
            int64_t bits = 8;
            zfp_put_groups(&w, 4, &n, &bits, (uint64_t)x);
            repro_zfp_plane4_encode[n0][x] = (uint16_t)(w.acc | w.n << 8 | n << 12);
        }
        for (int window = 0; window < 256; window++) {
            const uint8_t bytes[8] = {(uint8_t)window};
            bit_reader r = {bytes, 8, 0, 0, 0};
            int n = n0;
            int64_t bits = 8;
            const uint64_t x = zfp_get_groups(&r, 4, &n, &bits, 0);
            repro_zfp_plane4_decode[n0][window] = (uint16_t)(r.pos | n << 4 | x << 8);
        }
    }
}

/* The flat offsets of block b's cells (C order; cells past the field
 * edge clamp to the last valid one, np.pad mode="edge", and are flagged
 * in `inside`), then a step of `g` to the next block.  A 1-D block b is
 * elements 4b..4b+3. */
INLINE void zfp_cells(blk_geom* g, int64_t b, int size, int64_t* at, int* inside)
{
    if (size == 4) {
        EACH_VALUE(i, 4) {
            inside[i] = 4 * b + i < g->n[2];
            at[i] = inside[i] ? 4 * b + i : g->n[2] - 1;
        }
        return;
    }
    int64_t off[3][BLK_MAX_SIDE];
    int in[3][BLK_MAX_SIDE];
    blk_offsets(g, off, in);
    blk_next(g);
    int c = 0;
    for (int i = 0; i < g->ext[0]; i++)
        for (int j = 0; j < g->ext[1]; j++)
            for (int k = 0; k < g->ext[2]; k++, c++) {
                at[c] = off[0][i] + off[1][j] + off[2][k];
                inside[c] = in[0][i] & in[1][j] & in[2][k];
            }
}

/* The encoder's block body; see repro_zfp_encode. */
INLINE int64_t zfp_encode_blocks(
    const void* data, int is_f32, int ndim, const int64_t* shape,
    const int64_t* perm, int planes, int64_t maxbits,
    int64_t kbase, int kslope,
    uint8_t* out, uint64_t* offsets, int64_t* used_bits, uint8_t* nonzero,
    const int size)
{
    blk_geom g = blk_geometry(ndim, shape, 4);
    const int nd = size == 4 ? 1 : size == 16 ? 2 : 3; /* ndim as a literal */
    bit_writer w = {out, 0, 0, 0};
    const int64_t budget = maxbits > 0 ? maxbits - ZFP_HEADER_BITS : INT64_MAX;
    for (int64_t b = 0; b < g.nblocks; b++, blk_step(&g, nd)) {
        offsets[b] = (uint64_t)bw_bits(&w);
        double v[64];
        if (is_f32) blk_gather(&g, data, 1, nd, 4, v);
        else blk_gather(&g, data, 0, nd, 4, v);
        double amax = 0.0;
        EACH_VALUE(i, size)
            amax = fabs(v[i]) > amax ? fabs(v[i]) : amax;
        nonzero[b] = amax > 0.0;
        used_bits[b] = 0;
        if (!nonzero[b]) { /* '0' flag (+ fixed-rate zero padding) */
            bw_zeros(&w, maxbits > 0 ? maxbits : 1);
            continue;
        }
        const int e = zfp_exponent(amax);
        const double scale = zfp_scale(planes - 2 - e);
        int64_t q[64];
        EACH_VALUE(i, size)
            q[i] = rint_small(ZFP_LDEXP(v[i], planes - 2 - e, scale)); /* |.| < 2^50 */
        for (int stride = size / 4; stride >= 1; stride /= 4)
            zfp_lift_axis(q, size, stride, 0);
        uint64_t u[64], all = 0;
        EACH_VALUE(i, size) {
            u[i] = ((uint64_t)q[perm[i]] + ZFP_NBMASK) ^ ZFP_NBMASK;
            all |= u[i];
        }
        /* bp[i]: bits 8 * group .. 8 * group + 7 of u[i], the byte planes
         * of the current group of 8 planes */
        uint8_t bp[64];
        int group = -1;

        bw_put(&w, (uint64_t)(1 << ZFP_EBITS | (e + ZFP_EBIAS)), ZFP_HEADER_BITS);
        const int64_t kmin = zfp_kmin(kbase, kslope, e, planes);
        int64_t bits = budget;
        /* While no coefficient is significant a plane without bits is one
         * failed group test: the planes above the top set bit cost one 0
         * bit each. */
        int64_t empty = all ? __builtin_clzll(all) - (64 - planes) : planes;
        if (empty < 0) empty = 0;
        if (empty > planes - kmin) empty = planes - kmin;
        if (empty > bits) empty = bits;
        bw_zeros(&w, empty);
        bits -= empty;
        int n = 0;
        for (int64_t k = planes - 1 - empty; k >= kmin && bits; k--) {
            uint64_t x = 0;
            if (size == 4) {
                EACH_VALUE(i, 4) x |= (u[i] >> k & 1) << i;
                /* the value bits, then the group tests by table: one write */
                const int m = n < bits ? n : (int)bits;
                const uint64_t values = zfp_rev4[x & ((1u << m) - 1)] >> (4 - m);
                bits -= m;
                const int entry = repro_zfp_plane4_encode[n][x >> m];
                const int full = entry >> 8 & 15;
                const int count = full <= bits ? full : (int)bits;
                const uint64_t tests = (entry & 0xFF) >> (full - count);
                bw_put(&w, values << count | tests, m + count);
                bits -= count;
                n = entry >> 12;
                continue;
            }
            if (k >> 3 != group) {
                group = (int)(k >> 3);
                EACH_VALUE(i, size) bp[i] = (uint8_t)(u[i] >> 8 * group);
            }
            x = zfp_plane_word(bp, size, (int)(k & 7));
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
            zfp_put_groups(&w, size, &n, &bits, x);
        }
        used_bits[b] = ZFP_HEADER_BITS + (budget - bits);
        if (maxbits > 0) bw_zeros(&w, bits);
    }
    const int64_t total = bw_finish(&w);
    offsets[g.nblocks] = (uint64_t)total;
    return total;
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
    return ZFP_SIZED(zfp_encode_blocks, data, is_f32, ndim, shape, perm, planes,
                     maxbits, kbase, kslope, out, offsets, used_bits, nonzero);
}

/* The decoder's block body; see repro_zfp_decode. */
INLINE int64_t zfp_decode_blocks(
    const uint8_t* body, int64_t nbytes, const int64_t* offsets,
    int64_t maxbits, void* out, int is_f32, int ndim, const int64_t* shape,
    const int64_t* perm, int planes, int64_t kbase, int kslope,
    const int size)
{
    blk_geom g = blk_geometry(ndim, shape, 4);
    bit_reader r = {body, nbytes, 0, 0, 0};
    for (int64_t b = 0; b < g.nblocks; b++) {
        const int64_t start = offsets ? offsets[b] : b * maxbits;
        const int64_t span = offsets ? offsets[b + 1] - start : maxbits;
        if (span <= 0 || start < 0) return 1;
        int64_t at[64];
        int inside[64];
        zfp_cells(&g, b, size, at, inside);
        r.pos = start;
        br_refill(&r);
        double v[64];
        if (!(r.buf >> 63)) {
            br_skip(&r, 1);
            EACH_VALUE(i, size) v[i] = 0.0;
        } else {
            if (span < ZFP_HEADER_BITS) return 2;
            const int e = (int)(r.buf >> (64 - ZFP_HEADER_BITS) & 0xFFF) - ZFP_EBIAS;
            br_skip(&r, ZFP_HEADER_BITS);
            const int64_t kmin = zfp_kmin(kbase, kslope, e, planes);
            int64_t bits = span - ZFP_HEADER_BITS;
            /* the encoder's empty top planes: a run of 0 bits (of the
             * at least 44 still buffered) */
            int64_t empty = __builtin_clzll(r.buf | 1);
            if (empty > r.avail) empty = r.avail;
            if (empty > planes - kmin) empty = planes - kmin;
            if (empty > bits) empty = bits;
            br_skip(&r, (int)empty);
            bits -= empty;
            uint64_t u[64];
            EACH_VALUE(i, size) u[i] = 0;
            int n = 0;
            for (int64_t k = planes - 1 - empty; k >= kmin && bits; k--) {
                uint64_t x = 0;
                if (size == 4) {
                    /* up to 4 value bits, then the group tests by table */
                    if (r.avail < 12) br_refill(&r);
                    const int m = n < bits ? n : (int)bits;
                    x = zfp_rev4[r.buf >> 60] & ((1u << m) - 1);
                    br_skip(&r, m);
                    bits -= m;
                    const int entry = repro_zfp_plane4_decode[n][r.buf >> 56];
                    if ((entry & 15) <= bits) {
                        x |= (unsigned)entry >> 8;
                        n = entry >> 4 & 15;
                        br_skip(&r, entry & 15);
                        bits -= entry & 15;
                    } else /* the budget ends inside this plane */
                        x = zfp_get_groups(&r, 4, &n, &bits, x);
                    EACH_VALUE(i, 4) u[i] |= (x >> i & 1) << k;
                    continue;
                }
                const int m = n < bits ? n : (int)bits;
                bits -= m;
                for (int got = 0; got < m; got += 32) {
                    const int take = m - got < 32 ? m - got : 32;
                    x |= (zfp_rev64(br_get(&r, take)) >> (64 - take)) << got;
                }
                x = zfp_get_groups(&r, size, &n, &bits, x);
                for (; x; x &= x - 1)
                    u[__builtin_ctzll(x)] |= 1ULL << k;
            }
            int64_t q[64];
            EACH_VALUE(i, size)
                q[perm[i]] = (int64_t)((u[i] ^ ZFP_NBMASK) - ZFP_NBMASK);
            for (int stride = 1; stride < size; stride *= 4)
                zfp_lift_axis(q, size, stride, 1);
            const double scale = zfp_scale(e - (planes - 2));
            EACH_VALUE(i, size)
                v[i] = ZFP_LDEXP((double)q[i], e - (planes - 2), scale);
        }
        EACH_VALUE(i, size) {
            if (!inside[i]) continue;
            if (is_f32) ((float*)out)[at[i]] = (float)v[i];
            else ((double*)out)[at[i]] = v[i];
        }
    }
    return 0;
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
    return ZFP_SIZED(zfp_decode_blocks, body, nbytes, offsets, maxbits, out,
                     is_f32, ndim, shape, perm, planes, kbase, kslope);
}
"""
