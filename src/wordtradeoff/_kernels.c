/*
 * The package's compiled kernels, plain C with no Python headers.
 * entropy.py compiles this file on first use and calls it through ctypes.
 * Each function is the compiled form of a Python reference, kept in
 * tests/reference.py unless named below, and must give the same output on
 * every input.
 *
 * match_lengths: match lengths l_1..l_N of a code-point sequence, computed
 * in one pass while a suffix automaton (Blumer et al. 1985) of the text
 * grows, as automaton_lengths in tests/reference.py. Before s[i] is added,
 * the automaton holds exactly the substrings of s[0..i-1], so a match read
 * in it cannot overlap position i, and no occurrence positions are needed.
 * After s[i] is added, the match drops s[i] by suffix links. If adding s[i]
 * split the match state, its suffix link is now the clone, and that walk
 * moves the match there when its shortened length falls in the clone's
 * range.
 *
 * Layout: a state holds its first INLINE_EDGES transitions in its own
 * 24-byte struct, so the common lookup reads no other memory; further
 * transitions go to a per-state singly linked list in one flat edge array.
 * Most states have one or two transitions (1.6 on average for an iid
 * 4-symbol stream). An automaton over n symbols has at most 2n - 1 states
 * and 3n - 4 transitions (n >= 3), and construction never removes a
 * transition, so 2n + 2 states and 3n + 3 edges always suffice.
 *
 * An inline slot stores its code as uint16_t, and U+FFFF marks a free
 * slot, so a slot test is one compare. U+FFFF itself and astral code
 * points (above U+FFFF) always go to overflow edges, which store full
 * 32-bit codes. Slots fill in order and are never emptied, so a BMP code
 * reaches the overflow list only once both slots are taken. That lets
 * each construction step find a transition or add it in one pass
 * (find_or_add_edge): a free slot ends the search. It also lets a clone
 * copy its original's overflow edges straight to overflow: the clone
 * starts with the original's inline slots, so any BMP code among those
 * edges finds both slots taken there too.
 *
 * entropy_rate: the estimate n / sum_i l_i / log2(i + 1) of entropy.py's
 * entropy_rate, summed in one sequential loop with libm's log2, in the
 * same order as entropy_rate in tests/reference.py, so the two give the
 * same bits.
 *
 * shuffle_segments, randbelow_fill: the seeded draws of transforms.py's
 * Xorshift64Star, by the recipe of docs/seeds.md sections 2-4 (xorshift64*
 * stream, threshold-rejection randbelow, backward Fisher-Yates). Both take
 * the generator state and return the state after their last draw.
 *
 * results_scan: the columns of a results table's body in the plain form
 * that measures.write_results_csv writes, in one pass. Its reference is
 * measures.read_results_csv on a text stream (the csv module), which reads
 * any table the scan declines. A float field of at most 15 significant
 * digits and a decimal exponent within +-22 is m * 10^e with m and 10^|e|
 * exact doubles, so one IEEE multiply or divide rounds it correctly
 * (Clinger 1990): the bits of Python's float(), with no strtod or locale.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define INLINE_EDGES 2
/* Code of a free inline slot; U+FFFF itself never goes inline. */
#define FREE_SLOT 0xFFFF

typedef struct {
    int32_t len;  /* length of the longest string in the state */
    int32_t link; /* suffix link, -1 at the root */
    int32_t head; /* first overflow edge, -1 if none */
    int32_t to[INLINE_EDGES];
    uint16_t c[INLINE_EDGES]; /* code of to[k], or FREE_SLOT */
} state_t;

typedef struct {
    uint32_t c;
    int32_t to;
    int32_t next;
} edge_t;

/* Largest n whose state and edge indices fit in int32. */
#define MAX_N ((INT32_MAX - 3) / 3)

static void init_state(state_t *x, int32_t len, int32_t link)
{
    x->len = len;
    x->link = link;
    x->head = -1;
    for (int k = 0; k < INLINE_EDGES; k++)
        x->c[k] = FREE_SLOT;
}

/* Address of the target of v's transition on c, or NULL if it has none. */
static int32_t *find_edge(state_t *st, edge_t *ed, int32_t v, uint32_t c)
{
    state_t *x = &st[v];
    if (c < FREE_SLOT)
        for (int k = 0; k < INLINE_EDGES; k++)
            if (x->c[k] == c)
                return &x->to[k];
    for (int32_t e = x->head; e >= 0; e = ed[e].next)
        if (ed[e].c == c)
            return &ed[e].to;
    return NULL;
}

static void push_edge(state_t *x, edge_t *ed, int32_t *n_edges, uint32_t c,
                      int32_t to)
{
    int32_t e = (*n_edges)++;
    ed[e].c = c;
    ed[e].to = to;
    ed[e].next = x->head;
    x->head = e;
}

/*
 * The address of the target of v's transition on c, or NULL after adding
 * that transition to `to`, in one pass: a free slot ends the search (see
 * Layout above).
 */
static int32_t *find_or_add_edge(state_t *st, edge_t *ed, int32_t *n_edges,
                                 int32_t v, uint32_t c, int32_t to)
{
    state_t *x = &st[v];
    if (c < FREE_SLOT)
        for (int k = 0; k < INLINE_EDGES; k++) {
            if (x->c[k] == c)
                return &x->to[k];
            if (x->c[k] == FREE_SLOT) {
                x->c[k] = (uint16_t)c;
                x->to[k] = to;
                return NULL;
            }
        }
    for (int32_t e = x->head; e >= 0; e = ed[e].next)
        if (ed[e].c == c)
            return &ed[e].to;
    push_edge(x, ed, n_edges, c, to);
    return NULL;
}

/*
 * Writes l_1..l_n to out. Returns 0 on success, 1 if allocation fails and
 * 2 if n is outside 1..MAX_N; out is left unspecified on failure.
 */
int match_lengths(const uint32_t *s, int64_t n, int32_t *out)
{
    if (n < 1 || n > MAX_N)
        return 2;
    state_t *st = malloc((size_t)(2 * n + 2) * sizeof *st);
    edge_t *ed = malloc((size_t)(3 * n + 3) * sizeof *ed);
    if (st == NULL || ed == NULL) {
        free(st);
        free(ed);
        return 1;
    }

    /* (v, match): the state and length of the match of position i. */
    int32_t n_states = 1, n_edges = 0, last = 0, v = 0, match = 0;
    init_state(&st[0], 0, -1);
    for (int32_t i = 0; i < n; i++) {
        while (match < n - i) {
            int32_t *t = find_edge(st, ed, v, s[i + match]);
            if (t == NULL)
                break;
            v = *t;
            match++;
        }
        out[i] = match + 1;

        uint32_t c = s[i];
        int32_t cur = n_states++;
        init_state(&st[cur], st[last].len + 1, -1);
        int32_t p = last;
        int32_t *t = NULL;
        while (p != -1 &&
               (t = find_or_add_edge(st, ed, &n_edges, p, c, cur)) == NULL)
            p = st[p].link;
        if (p == -1) {
            st[cur].link = 0;
        } else {
            int32_t q = *t;
            if (st[p].len + 1 == st[q].len) {
                st[cur].link = q;
            } else {
                /* The clone takes q's link and inline transitions; its
                 * overflow transitions are copied into new edges. */
                int32_t clone = n_states++;
                st[clone] = st[q];
                st[clone].len = st[p].len + 1;
                st[clone].head = -1;
                for (int32_t f = st[q].head; f >= 0; f = ed[f].next)
                    push_edge(&st[clone], ed, &n_edges, ed[f].c, ed[f].to);
                while (t != NULL && *t == q) {
                    *t = clone;
                    p = st[p].link;
                    t = p == -1 ? NULL : find_edge(st, ed, p, c);
                }
                st[q].link = clone;
                st[cur].link = clone;
            }
        }
        last = cur;

        /* Drop s[i]; if v was just split, its suffix link is the clone. */
        if (match > 0) {
            match--;
            while (v && st[st[v].link].len >= match)
                v = st[v].link;
        }
    }

    free(st);
    free(ed);
    return 0;
}

/*
 * log2(i + 2) for 0 <= i < log2_n, kept between calls of entropy_rate: the
 * three variants of a book and all its replicates have one length, so they
 * share one table, and the log2 calls were most of the sum's time. Not
 * thread-safe: entropy.py calls entropy_rate holding the GIL.
 */
static double *log2_table;
static int64_t log2_n;

/* n / sum_{i=1..n} l_i / log2(i + 1), summed from i = 1 up; n >= 1. */
double entropy_rate(const int32_t *l, int64_t n)
{
    if (n > log2_n) {
        double *t = realloc(log2_table, (size_t)n * sizeof *t);
        if (t != NULL) {
            for (int64_t i = log2_n; i < n; i++)
                t[i] = log2((double)(i + 2));
            log2_table = t;
            log2_n = n;
        }
    }
    double sum = 0.0;
    int64_t i = 0;
    for (; i < n && i < log2_n; i++)
        sum += l[i] / log2_table[i];
    for (; i < n; i++) /* only if the table could not grow */
        sum += l[i] / log2((double)(i + 2));
    return (double)n / sum;
}

#define XORSHIFT_GOLDEN UINT64_C(0x9E3779B97F4A7C15)

/* One xorshift64* draw (docs/seeds.md section 2): advances *s. */
static uint64_t next_u64(uint64_t *s)
{
    uint64_t x = *s;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *s = x;
    return x * UINT64_C(0x2545F4914F6CDD1D);
}

/*
 * Uniform integer in [0, n), 1 <= n < 2^64, by threshold rejection
 * (section 3): draws u until u < 2^64 - (2^64 mod n), returns u mod n.
 */
static uint64_t randbelow(uint64_t *s, uint64_t n)
{
    uint64_t rem = (0 - n) % n; /* 2^64 mod n */
    for (;;) {
        uint64_t u = next_u64(s);
        if (rem == 0 || u < 0 - rem)
            return u % n;
    }
}

/*
 * Writes 0, 1, ... to perm and runs backward Fisher-Yates (section 4) over
 * its consecutive segments: segment g holds the next counts[g] entries and
 * is shuffled in place, the segments in order, all from one stream. Counts
 * must sum to at most the length of perm.
 */
uint64_t shuffle_segments(uint64_t state, const uint64_t *counts, int64_t nseg,
                          int64_t *perm)
{
    if (state == 0)
        state = XORSHIFT_GOLDEN;
    int64_t start = 0;
    for (int64_t g = 0; g < nseg; g++) {
        int64_t count = (int64_t)counts[g];
        for (int64_t i = 0; i < count; i++)
            perm[i] = start + i;
        for (int64_t i = count - 1; i > 0; i--) {
            int64_t j = (int64_t)randbelow(&state, (uint64_t)i + 1);
            int64_t t = perm[i];
            perm[i] = perm[j];
            perm[j] = t;
        }
        start += count;
        perm += count;
    }
    return state;
}

/* Writes count draws of randbelow(bound), 1 <= bound < 2^64, to out. */
uint64_t randbelow_fill(uint64_t state, uint64_t bound, int64_t count,
                        uint64_t *out)
{
    if (state == 0)
        state = XORSHIFT_GOLDEN;
    for (int64_t i = 0; i < count; i++)
        out[i] = randbelow(&state, bound);
    return state;
}

static const double POW10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/*
 * Each scan_* reads one field at s[*i..len) that ends in `end` (',' for an
 * id), stores its value and moves *i past `end`; it returns 0, reading
 * nothing at or past len, when the field is outside the plain form.
 */

/* An id: one or more ASCII bytes but '"', '\r', '\n' and NUL. */
static int scan_id(const char *s, int64_t len, int64_t *i)
{
    int64_t j = *i;
    for (; j < len && s[j] != ','; j++) {
        unsigned char c = (unsigned char)s[j];
        if (c == '"' || c == '\r' || c == '\n' || c == 0 || c >= 0x80)
            return 0;
    }
    if (j == *i || j == len)
        return 0;
    *i = j + 1;
    return 1;
}

/* 1-18 ASCII digits, so the value fits in int64. */
static int scan_int(const char *s, int64_t len, int64_t *i, char end, int64_t *out)
{
    int64_t j = *i, v = 0;
    for (; j < len && j - *i < 18 && is_digit(s[j]); j++)
        v = 10 * v + (s[j] - '0');
    if (j == *i || j == len || s[j] != end)
        return 0;
    *out = v;
    *i = j + 1;
    return 1;
}

/* Appends the digits at s[*j..] to m, counting significant ones in *sig. */
static int64_t add_digits(const char *s, int64_t len, int64_t *j, uint64_t *m, int *sig)
{
    int64_t start = *j;
    for (; *j < len && is_digit(s[*j]); (*j)++) {
        if (*m == 0 && s[*j] == '0')
            continue; /* a leading zero */
        if (++*sig > 15)
            return -1;
        *m = 10 * *m + (uint64_t)(s[*j] - '0');
    }
    return *j - start;
}

/* -?D+(.D+)?(e[+-]?D{1,3})?, of at most 15 significant digits m and a
 * decimal exponent e within +-22: the double nearest m * 10^e. */
static int scan_float(const char *s, int64_t len, int64_t *i, char end, double *out)
{
    int64_t j = *i, exp10 = 0, n;
    uint64_t m = 0;
    int sig = 0, neg = j < len && s[j] == '-';
    j += neg;
    if (add_digits(s, len, &j, &m, &sig) < 1)
        return 0;
    if (j < len && s[j] == '.') {
        j++;
        if ((n = add_digits(s, len, &j, &m, &sig)) < 1)
            return 0;
        exp10 = -n;
    }
    if (j < len && s[j] == 'e') {
        int eneg = ++j < len && s[j] == '-';
        j += j < len && (s[j] == '-' || s[j] == '+');
        int64_t start = j, e = 0;
        for (; j < len && j - start < 3 && is_digit(s[j]); j++)
            e = 10 * e + (s[j] - '0');
        if (j == start)
            return 0;
        exp10 += eneg ? -e : e;
    }
    if (j == len || s[j] != end || exp10 < -22 || exp10 > 22)
        return 0;
    double x = exp10 < 0 ? (double)m / POW10[-exp10] : (double)m * POW10[exp10];
    *out = neg ? -x : x;
    *i = j + 1;
    return 1;
}

/*
 * Reads the records of s[start..len), each ten fields of at most max_field
 * bytes (the csv module's field_size_limit) ending in '\n', into
 * columns[0..7]: book_id, replicate and N as int64, then h_original ..
 * d_structure as double, each with room for one value per '\n'. Each
 * run of records with the same translation_id and language appends to runs
 * its first row and the offsets of its translation_id and of the comma
 * after its language; after the last run, runs holds the row count. So
 * runs needs room for 3 values per '\n' and one more. Returns the row
 * count, or -1 at the first record outside the plain form (each field as
 * its scan_* above reads it); no record is stored before its '\n' is read.
 */
int64_t results_scan(const char *s, int64_t start, int64_t len, int64_t max_field,
                     void *const *columns, int64_t *runs)
{
#if FLT_EVAL_METHOD != 0
    return -1; /* wider intermediates would round twice */
#endif
    int64_t n = 0, i = start, prev = 0, prev_len = -1;
    while (i < len) {
        int64_t rec = i, ids_len = 0, v[3];
        double x[5];
        for (int f = 0; f < 10; f++) {
            int64_t field = i;
            char end = f < 9 ? ',' : '\n';
            if (!(f < 2   ? scan_id(s, len, &i)
                  : f < 5 ? scan_int(s, len, &i, end, &v[f - 2])
                          : scan_float(s, len, &i, end, &x[f - 5])) ||
                i - 1 - field > max_field)
                return -1;
            if (f == 1)
                ids_len = i - 1 - rec;
        }
        if (ids_len != prev_len || memcmp(s + rec, s + prev, (size_t)ids_len) != 0) {
            *runs++ = n;
            *runs++ = rec;
            *runs++ = rec + ids_len;
            prev = rec;
            prev_len = ids_len;
        }
        for (int c = 0; c < 3; c++)
            ((int64_t *)columns[c])[n] = v[c];
        for (int c = 0; c < 5; c++)
            ((double *)columns[3 + c])[n] = x[c];
        n++;
    }
    *runs = n;
    return n;
}
