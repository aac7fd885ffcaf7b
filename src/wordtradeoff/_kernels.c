/*
 * The package's compiled kernels, plain C with no Python headers.
 * entropy.py compiles this file on first use and calls it through ctypes.
 * Each function is the compiled form of a Python reference kept in
 * tests/reference.py, and must give the same output on every input.
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
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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
