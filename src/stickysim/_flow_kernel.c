/*
 * Compiled event loop of stickysim.flow_sim.run_flow_sim.
 *
 * This is a line-for-line port of the Python reference loop
 * (flow_sim._run_flow_sim_py): same draw order, same double arithmetic, same
 * swap-remove/append order in every server list, so a run produces the same
 * SimStats bit for bit.  Build it with -ffp-contract=off and never with
 * -ffast-math: a fused multiply-add or a reordered sum changes the result.
 *
 * Uniform draws come from a block of doubles owned by the caller; when the
 * block is used up the kernel calls refill(), which overwrites it in place
 * with the next block of the same generator.  The kernel owns every growable
 * array (slot list, histogram, series, per-level buckets) and hands the
 * ones the caller needs back through flow_result; flow_free releases them.
 *
 * Modes: 0 d=1, 1 d<n choices, 2 d>=n (least loaded), 3 pull, 4 shedding,
 * 5 transfer to invite, 6 transfer to least loaded.  high < 0 means no upper
 * threshold.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int (*refill_fn)(void);

typedef struct {
    int64_t n, mode, d, low, high, tracked, hist_start;
    double lam_total, inv_beta, t_start, t_stop;
    double *buf;
    int64_t buf_len;
    refill_fn refill;
} flow_params;

typedef struct {
    int64_t started, violations, total_flows, count;
    double flow_int, prev_t;
    int64_t *occ;
    double *last;
    double *hist;
    int64_t hist_len;
    double *series; /* (time, occupancy) rows */
    int64_t series_rows;
} flow_result;

enum { FLOW_OK = 0, FLOW_NOMEM = 1, FLOW_REFILL = 2 };

typedef struct {
    int32_t *a;
    int64_t len, cap;
} ilist;

/* ensure room for `need` elements of size `elem`; doubles the capacity */
static int reserve(void **p, int64_t *cap, int64_t need, size_t elem)
{
    if (need <= *cap)
        return 0;
    int64_t c = *cap ? *cap : 16;
    while (c < need)
        c *= 2;
    void *q = realloc(*p, (size_t)c * elem);
    if (!q)
        return -1;
    *p = q;
    *cap = c;
    return 0;
}

static int push(ilist *l, int32_t v)
{
    if (reserve((void **)&l->a, &l->cap, l->len + 1, sizeof *l->a))
        return -1;
    l->a[l->len++] = v;
    return 0;
}

typedef struct {
    const flow_params *p;
    flow_result *r;
    int64_t bi, series_cap;
} run_state;

/* next uniform; a refill failure sets *bad and yields 0.0 */
static inline double draw(run_state *S, int *bad)
{
    const flow_params *p = S->p;
    if (S->bi == p->buf_len) {
        if (p->refill())
            *bad = 1;
        S->bi = 0;
    }
    return p->buf[S->bi++];
}

/* time-weight server s's interval at occupancy o, then log its new value */
static int credit(run_state *S, int64_t s, int64_t o, int64_t o_new, double t)
{
    flow_result *r = S->r;
    while (o >= r->hist_len) {
        double *h = realloc(r->hist, (size_t)(2 * r->hist_len) * sizeof *h);
        if (!h)
            return -1;
        memset(h + r->hist_len, 0, (size_t)r->hist_len * sizeof *h);
        r->hist = h;
        r->hist_len *= 2;
    }
    r->hist[o] += t - r->last[s];
    r->last[s] = t;
    if (s == S->p->tracked) {
        if (reserve((void **)&r->series, &S->series_cap, 2 * (r->series_rows + 1),
                    sizeof *r->series))
            return -1;
        r->series[2 * r->series_rows] = t;
        r->series[2 * r->series_rows + 1] = (double)o_new;
        r->series_rows++;
    }
    return 0;
}

/* swap-remove s from a membership list with a position index */
static void set_remove(int32_t *set, int64_t *pos, int64_t *count, int64_t s)
{
    int64_t p = pos[s];
    int32_t moved = set[--*count];
    set[p] = moved;
    pos[moved] = p;
    pos[s] = -1;
}

static void set_add(int32_t *set, int64_t *pos, int64_t *count, int64_t s)
{
    pos[s] = *count;
    set[(*count)++] = (int32_t)s;
}

/* move s from level bucket `from` to the end of bucket `to` */
static int level_move(ilist *levels, int64_t *level_pos, int64_t from, int64_t to,
                      int64_t s)
{
    ilist *b = &levels[from];
    int64_t p = level_pos[s];
    int32_t moved = b->a[b->len - 1];
    b->a[p] = moved;
    level_pos[moved] = p;
    b->len--;
    level_pos[s] = levels[to].len;
    return push(&levels[to], (int32_t)s);
}

int flow_run(const flow_params *p, flow_result *r)
{
    const int64_t n = p->n, mode = p->mode, low = p->low, high = p->high;
    const double lam_total = p->lam_total, inv_beta = p->inv_beta;
    const double t_start = p->t_start, t_stop = p->t_stop;
    const int need_invites = mode == 3 || mode == 5;
    const int need_levels = mode == 2 || mode == 6;

    run_state S = {p, r, 0, 0};
    int status = FLOW_NOMEM, bad = 0;

    memset(r, 0, sizeof *r);
    int32_t *invite = NULL, *below = NULL, *slot = NULL;
    int64_t *invite_pos = NULL, *below_pos = NULL, *level_pos = NULL;
    int64_t *cands = NULL;
    ilist *levels = NULL;
    int64_t n_levels = 0, levels_cap = 0, slot_cap = 0;
    int64_t inv_count = 0, bel_count = 0, cur_min = 0;

    r->occ = calloc((size_t)n, sizeof *r->occ);
    r->last = calloc((size_t)n, sizeof *r->last);
    r->hist = calloc((size_t)p->hist_start, sizeof *r->hist);
    r->hist_len = p->hist_start;
    if (!r->occ || !r->last || !r->hist)
        goto done;
    int64_t *occ = r->occ;

    if (need_invites) {
        invite = malloc((size_t)n * sizeof *invite);
        invite_pos = malloc((size_t)n * sizeof *invite_pos);
        below = malloc((size_t)n * sizeof *below);
        below_pos = malloc((size_t)n * sizeof *below_pos);
        if (!invite || !invite_pos || !below || !below_pos)
            goto done;
        /* low = 0 invites nobody: no occupancy is below zero */
        inv_count = low > 0 ? n : 0;
        bel_count = n;
        for (int64_t s = 0; s < n; s++) {
            invite[s] = (int32_t)s;
            invite_pos[s] = low > 0 ? s : -1;
            below[s] = (int32_t)s;
            below_pos[s] = s;
        }
    }
    if (need_levels) {
        level_pos = malloc((size_t)n * sizeof *level_pos);
        if (!level_pos || reserve((void **)&levels, &levels_cap, 1, sizeof *levels))
            goto done;
        memset(&levels[0], 0, sizeof *levels);
        n_levels = 1;
        for (int64_t s = 0; s < n; s++) {
            level_pos[s] = s;
            if (push(&levels[0], (int32_t)s))
                goto done;
        }
    }
    if (mode == 1 && !(cands = malloc((size_t)p->d * sizeof *cands)))
        goto done;

    int64_t count = 0;
    double t = 0.0, flow_int = 0.0, prev_t = 0.0;
    int started = 0;
    for (;;) {
        double rate = lam_total + (double)count * inv_beta;
        double u = draw(&S, &bad);
        t += -log(1.0 - u) / rate;
        if (t >= t_stop)
            break;
        if (!started && t >= t_start) {
            started = 1;
            for (int64_t s = 0; s < n; s++)
                r->last[s] = t_start;
            prev_t = t_start;
            if (reserve((void **)&r->series, &S.series_cap, 2, sizeof *r->series))
                goto done;
            r->series[0] = t_start;
            r->series[1] = (double)occ[p->tracked];
            r->series_rows = 1;
        }
        if (started) {
            flow_int += (double)count * (t - prev_t);
            prev_t = t;
        }

        u = draw(&S, &bad);
        int64_t s, o;
        if (u * rate < lam_total) {
            /* ----- arrival ----- */
            if (started)
                r->total_flows++;
            u = draw(&S, &bad);
            switch (mode) {
            case 0:
                s = (int64_t)(u * (double)n);
                break;
            case 1: {
                int64_t nc = 1;
                cands[0] = (int64_t)(u * (double)n);
                while (nc < p->d) {
                    int64_t c = (int64_t)(draw(&S, &bad) * (double)n), seen = 0;
                    for (int64_t k = 0; k < nc; k++)
                        seen |= cands[k] == c;
                    if (!seen)
                        cands[nc++] = c;
                }
                s = cands[0];
                int64_t best = occ[s], nb = 1;
                for (int64_t k = 1; k < nc; k++) {
                    int64_t c = cands[k], oc = occ[c];
                    if (oc < best) {
                        best = oc;
                        s = c;
                        nb = 1;
                    } else if (oc == best) {
                        /* reservoir pick over ties: replace with prob 1/nb */
                        nb++;
                        if (draw(&S, &bad) * (double)nb < 1.0)
                            s = c;
                    }
                }
                break;
            }
            case 2: {
                ilist *b = &levels[cur_min];
                s = b->a[(int64_t)(u * (double)b->len)];
                break;
            }
            case 3:
                if (inv_count)
                    s = invite[(int64_t)(u * (double)inv_count)];
                else if (bel_count)
                    s = below[(int64_t)(u * (double)bel_count)];
                else
                    s = (int64_t)(u * (double)n);
                break;
            case 4:
                s = (int64_t)(u * (double)n);
                if (high >= 0 && occ[s] >= high) {
                    if (started)
                        r->violations++;
                    continue;
                }
                break;
            case 5:
                s = (int64_t)(u * (double)n);
                if (occ[s] >= high) {
                    if (started)
                        r->violations++;
                    u = draw(&S, &bad);
                    if (inv_count)
                        s = invite[(int64_t)(u * (double)inv_count)];
                    else if (bel_count)
                        s = below[(int64_t)(u * (double)bel_count)];
                    else
                        s = (int64_t)(u * (double)n);
                }
                break;
            default:
                s = (int64_t)(u * (double)n);
                if (occ[s] >= high) {
                    if (started)
                        r->violations++;
                    ilist *b = &levels[cur_min];
                    s = b->a[(int64_t)(draw(&S, &bad) * (double)b->len)];
                }
                break;
            }

            o = occ[s];
            occ[s] = o + 1;
            if (reserve((void **)&slot, &slot_cap, count + 1, sizeof *slot))
                goto done;
            slot[count++] = (int32_t)s;
            if (started && credit(&S, s, o, o + 1, t))
                goto done;
            if (need_invites) {
                if (o + 1 == low)
                    set_remove(invite, invite_pos, &inv_count, s);
                if (o + 1 == high)
                    set_remove(below, below_pos, &bel_count, s);
            } else if (need_levels) {
                if (o + 1 >= n_levels) {
                    if (reserve((void **)&levels, &levels_cap, n_levels + 1,
                                sizeof *levels))
                        goto done;
                    memset(&levels[n_levels++], 0, sizeof *levels);
                }
                if (level_move(levels, level_pos, o, o + 1, s))
                    goto done;
                if (levels[o].len == 0 && o == cur_min)
                    while (levels[cur_min].len == 0)
                        cur_min++;
            }
        } else {
            /* ----- departure: uniform over active flows ----- */
            if (count == 0)
                continue;
            int64_t j = (int64_t)(draw(&S, &bad) * (double)count);
            s = slot[j];
            slot[j] = slot[--count];
            o = occ[s];
            occ[s] = o - 1;
            if (started && credit(&S, s, o, o - 1, t))
                goto done;
            if (need_invites) {
                if (o == low)
                    set_add(invite, invite_pos, &inv_count, s);
                if (o == high)
                    set_add(below, below_pos, &bel_count, s);
            } else if (need_levels) {
                if (level_move(levels, level_pos, o, o - 1, s))
                    goto done;
                if (o - 1 < cur_min)
                    cur_min = o - 1;
                else if (levels[o].len == 0 && o == cur_min)
                    while (levels[cur_min].len == 0)
                        cur_min++;
            }
        }
        if (bad) {
            status = FLOW_REFILL;
            goto done;
        }
    }
    status = bad ? FLOW_REFILL : FLOW_OK;
    r->started = started;
    r->count = count;
    r->flow_int = flow_int;
    r->prev_t = prev_t;

done:
    free(invite);
    free(invite_pos);
    free(below);
    free(below_pos);
    free(level_pos);
    free(cands);
    free(slot);
    for (int64_t k = 0; k < n_levels; k++)
        free(levels[k].a);
    free(levels);
    return status;
}

void flow_free(flow_result *r)
{
    free(r->occ);
    free(r->last);
    free(r->hist);
    free(r->series);
    r->occ = NULL;
    r->last = NULL;
    r->hist = NULL;
    r->series = NULL;
}
