/*
 * Match lengths l_1..l_N of a code-point sequence, computed with a suffix
 * automaton (Blumer et al. 1985). This is the compiled form of the Python
 * automaton in entropy.py and must give the same output on every input.
 *
 * Each state records the end position of its first occurrence (fpos,
 * 1-indexed). One matching-statistics scan then extends the current
 * match only through states whose first occurrence ends before the
 * current position, which keeps every match inside the preceding text.
 *
 * Plain C with no Python headers; entropy.py compiles it on first use and
 * calls it through ctypes.
 *
 * Layout: a state holds its first INLINE_EDGES transitions in its own
 * 32-byte struct, so the common lookup touches one cache line; further
 * transitions go to a per-state singly linked list in one flat edge array.
 * Most states have one or two transitions (1.6 on average for an iid
 * 4-symbol stream). An automaton over n symbols has at most 2n - 1 states
 * and 3n - 4 transitions (n >= 3), and construction never removes a
 * transition, so 2n + 2 states and 3n + 3 edges always suffice.
 */

#include <stdint.h>
#include <stdlib.h>

#define INLINE_EDGES 2

typedef struct {
    int32_t len;  /* length of the longest string in the state */
    int32_t link; /* suffix link, -1 at the root */
    int32_t fpos; /* end position of the first occurrence, 1-indexed */
    int32_t head; /* first overflow edge, -1 if none */
    uint32_t c[INLINE_EDGES];
    int32_t to[INLINE_EDGES]; /* -1 marks an unused slot */
} state_t;

typedef struct {
    uint32_t c;
    int32_t to;
    int32_t next;
} edge_t;

/* Largest n whose state and edge indices fit in int32. */
#define MAX_N ((INT32_MAX - 3) / 3)

static void init_state(state_t *x, int32_t len, int32_t link, int32_t fpos)
{
    x->len = len;
    x->link = link;
    x->fpos = fpos;
    x->head = -1;
    for (int k = 0; k < INLINE_EDGES; k++)
        x->to[k] = -1;
}

/* Address of the target of v's transition on c, or NULL if it has none. */
static int32_t *find_edge(state_t *st, edge_t *ed, int32_t v, uint32_t c)
{
    state_t *x = &st[v];
    for (int k = 0; k < INLINE_EDGES; k++)
        if (x->to[k] >= 0 && x->c[k] == c)
            return &x->to[k];
    for (int32_t e = x->head; e >= 0; e = ed[e].next)
        if (ed[e].c == c)
            return &ed[e].to;
    return NULL;
}

static void add_edge(state_t *st, edge_t *ed, int32_t *n_edges, int32_t v,
                     uint32_t c, int32_t to)
{
    state_t *x = &st[v];
    for (int k = 0; k < INLINE_EDGES; k++) {
        if (x->to[k] < 0) {
            x->c[k] = c;
            x->to[k] = to;
            return;
        }
    }
    int32_t e = (*n_edges)++;
    ed[e].c = c;
    ed[e].to = to;
    ed[e].next = x->head;
    x->head = e;
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

    int32_t n_states = 1, n_edges = 0, last = 0;
    init_state(&st[0], 0, -1, 0);
    for (int32_t i = 0; i < n; i++) {
        uint32_t c = s[i];
        int32_t cur = n_states++;
        init_state(&st[cur], st[last].len + 1, -1, i + 1);
        int32_t p = last;
        int32_t *t = NULL;
        while (p != -1 && (t = find_edge(st, ed, p, c)) == NULL) {
            add_edge(st, ed, &n_edges, p, c, cur);
            p = st[p].link;
        }
        if (p == -1) {
            st[cur].link = 0;
        } else {
            int32_t q = *t;
            if (st[p].len + 1 == st[q].len) {
                st[cur].link = q;
            } else {
                /* The clone takes q's link, fpos and inline transitions;
                 * its overflow transitions are copied into new edges. */
                int32_t clone = n_states++;
                st[clone] = st[q];
                st[clone].len = st[p].len + 1;
                st[clone].head = -1;
                for (int32_t f = st[q].head; f >= 0; f = ed[f].next)
                    add_edge(st, ed, &n_edges, clone, ed[f].c, ed[f].to);
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
    }

    int32_t v = 0, match = 0;
    for (int32_t i = 1; i <= n; i++) {
        int32_t limit = (int32_t)n - i + 1;
        while (match < limit) {
            int32_t *t = find_edge(st, ed, v, s[i + match - 1]);
            if (t == NULL || st[*t].fpos > i - 1)
                break;
            v = *t;
            match++;
        }
        out[i - 1] = match + 1;
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
