/*
 * Compiled loops of stickysim: sim_run, the event loop of flow_sim.run_flow_sim
 * and bin_sim.run_bin_sim, and ode_run, the step loop of
 * mean_field.integrate_ode.  ode_run owns the hybrid system's discrete state
 * (pinning and release of the saturated prefix, the residual and stationary
 * stop rules) in an ode_loop carried from call to call, so an integration is
 * one foreign call, or one per record stride.  Each step is ode_drift, the
 * mean-field drift (join rule plus arrival/departure balance) at the step's
 * start, with the dip-refill correction applied and its sup-norm returned for
 * the stop rule, and ode_step, the three RK4 stages (projected stage state,
 * then the corrected drift there) and the step end (RK4 combination,
 * projection, projection distance).
 *
 * sim_run is a line-for-line port of its Python reference (flow_sim._run_py):
 * same draw order, same double arithmetic, same swap-remove/append order in
 * every list, so a run produces the same statistics bit for bit.  Build it
 * with -ffp-contract=off and never with -ffast-math: a fused multiply-add or a
 * reordered sum changes the result.  Every list it keeps (the invite and
 * below-high server lists, the per-occupancy server buckets, the bins of each
 * server) is an ilist, changed only by list_add, list_drop, list_update and
 * list_move, the twins of _SwapList.add, .drop, .update and BinTable.move;
 * pull_pick, the twin of flow_sim._pull_pick, is the pull rule's one pick
 * from the first two.
 *
 * _native.FLAGS builds it at -O3, where GCC vectorizes the ODE's per-level
 * loops (the stage and RK4 combinations, project's clip pass, the join rules,
 * the d-choices products and differences, the balance in drift and both
 * loops of the correction) two doubles at a time.  Each lane rounds as the
 * scalar operation does, and the correction's sum is vectorized as an
 * in-order fold, so no result changes.  The NaN-aware sups and project's
 * running minimum stay scalar.
 *
 * Uniform draws come from the kernel's own copy of numpy's Philox4x64-10,
 * keyed by sim_params.key (the key of numpy.random.Philox(seed)) with its
 * counter starting at zero, and converted as Generator.random does, so the
 * kernel draws the same doubles as the reference loop's RngStream without
 * calling back into Python.  Philox is counter-based, so block k of a run's
 * uniforms (philox_block) depends on the key and k alone: a run that draws
 * more than one block may start one helper thread, which fills blocks ahead
 * into a ring the run owns, and the loop takes a block from the ring only
 * when the helper has published that very index, else makes it itself.
 * Each field of the ring has one writer, the helper its slots and their
 * published indices, the loop its read position and the stop flag, and the
 * loop never waits.  The helper never calls into Python, holds every signal
 * blocked and is joined before sim_run returns; which thread filled a block
 * cannot change a bit of the result.  The kernel owns every growable array
 * (active flows, histogram, series, server and bin lists) and hands the ones
 * the caller needs back through sim_result; sim_free releases them.
 *
 * sim_run's scheme modes are the MODE_* codes below; the bin scheme is
 * MODE_BIN, the pull rule's threshold lists plus a flow -> bin -> server
 * lookup and bin moves.  high = INT64_MAX means no upper threshold.
 *
 * ode_drift and ode_step are ports of the NumPy engine in mean_field._bind_ode
 * (the join rules _pull_rule and its siblings, the balance, the correction
 * with its left-to-right sum, and numpy's clip, np.minimum.accumulate and
 * np.maximum.reduce down to NaN and -0.0), with the same double operations in
 * the same order, so every RK4 step agrees bit for bit; ode_run is a port of
 * the Python step loop there, down to t accumulated one dt at a time, so
 * whole integrations agree too.
 *
 * The SIZEOF_* constants export the size of every struct shared with
 * _native.py, and MODE_CODES, RULE_CODES, STOP_CODES and NO_CAP the codes
 * the Python modules copy, so a test can compare each with its mirror.
 */

/* pthread_sigmask, sched_yield and sysconf under -std=c99 */
#define _POSIX_C_SOURCE 200809L

#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

/* Philox's rounds need the high half of a 64x64-bit product; without the
 * 128-bit type the build fails and the callers run the Python loop */
#ifndef __SIZEOF_INT128__
#error "sim_run's Philox needs unsigned __int128"
#endif

typedef struct {
    int64_t n, low, high, tracked, hist_start;
    int64_t mode, d;     /* d: MODE_D_CHOICES only */
    int64_t bins, drain; /* MODE_BIN only */
    double lam_total, inv_beta, t_start, t_stop;
    uint64_t key[2]; /* the Philox key of the run's seed */
} sim_params;

typedef struct {
    int64_t started, violations, total_flows, count;
    int64_t reallocations, skipped; /* MODE_BIN only */
    double flow_int, prev_t;
    int64_t *occ;
    double *last;
    double *hist;
    int64_t hist_len;
    double *series; /* (time, occupancy) rows */
    int64_t series_rows;
} sim_result;

enum { RUN_OK = 0, RUN_NOMEM = 1 };

/* A list of distinct ids with O(1) add and swap-remove: a[0..len-1] holds
 * the members in swap-remove order and pos[x] is x's index there.  Lists
 * that partition one population (the per-occupancy server buckets, the bins
 * of each server) share one pos array.  The twin of flow_sim._SwapList. */
typedef struct {
    int32_t *a;
    int64_t *pos;
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

/* append x (_SwapList.add) */
static int list_add(ilist *l, int64_t x)
{
    if (reserve((void **)&l->a, &l->cap, l->len + 1, sizeof *l->a))
        return -1;
    l->pos[x] = l->len;
    l->a[l->len++] = (int32_t)x;
    return 0;
}

/* swap-remove member x: the last member takes its place (_SwapList.drop) */
static void list_drop(ilist *l, int64_t x)
{
    int64_t p = l->pos[x];
    int32_t moved = l->a[--l->len];
    l->a[p] = moved;
    l->pos[moved] = p;
    l->pos[x] = -1;
}

/* make x's membership follow a jump: a member before iff `was`, after iff
 * `now` (_SwapList.update) */
static int list_update(ilist *l, int64_t x, int was, int now)
{
    if (was == now)
        return 0;
    if (now)
        return list_add(l, x);
    list_drop(l, x);
    return 0;
}

/* move member x of `from` to the end of `to` (bin_sim.BinTable.move) */
static int list_move(ilist *from, ilist *to, int64_t x)
{
    list_drop(from, x);
    return list_add(to, x);
}

/* a uniform member of the invite list from one uniform u, else of the
 * below-high list, else -1: the pull rule's pick (flow_sim._pull_pick) */
static inline int64_t pull_pick(double u, const ilist *invite, const ilist *below)
{
    if (invite->len)
        return invite->a[(int64_t)(u * (double)invite->len)];
    if (below->len)
        return below->a[(int64_t)(u * (double)below->len)];
    return -1;
}

/* uniforms per block: whole Philox outputs of four words each */
#define DRAW_BLOCK 512
/* blocks the helper thread may have filled ahead of the one being read */
#define RING 8

/* Block k of a run's uniforms, as numpy's Philox makes them: numpy
 * pre-increments a 256-bit counter from zero, so block k takes counters
 * 128k + 1 ... 128k + 128; run 10 rounds of Philox4x64 on each, bumping the
 * key between rounds, and map each output word x to (x >> 11) * 2^-53. */
static void philox_block(const uint64_t key[2], int64_t k, double *out)
{
    const uint64_t M0 = UINT64_C(0xD2E7470EE14C6C93), M1 = UINT64_C(0xCA5A826395121157);
    const uint64_t W0 = UINT64_C(0x9E3779B97F4A7C15), W1 = UINT64_C(0xBB67AE8584CAA73B);
    uint64_t ctr[4] = {(uint64_t)k << 7, (uint64_t)k >> 57, 0, 0};
    for (int i = 0; i < DRAW_BLOCK; i += 4) {
        if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0)
            ++ctr[3];
        uint64_t x0 = ctr[0], x1 = ctr[1], x2 = ctr[2], x3 = ctr[3];
        uint64_t k0 = key[0], k1 = key[1];
        for (int round = 0; round < 10; round++, k0 += W0, k1 += W1) {
            unsigned __int128 a = (unsigned __int128)M0 * x0;
            unsigned __int128 b = (unsigned __int128)M1 * x2;
            x0 = (uint64_t)(b >> 64) ^ x1 ^ k0;
            x1 = (uint64_t)b;
            x2 = (uint64_t)(a >> 64) ^ x3 ^ k1;
            x3 = (uint64_t)a;
        }
        out[i] = (double)(x0 >> 11) * 0x1p-53;
        out[i + 1] = (double)(x1 >> 11) * 0x1p-53;
        out[i + 2] = (double)(x2 >> 11) * 0x1p-53;
        out[i + 3] = (double)(x3 >> 11) * 0x1p-53;
    }
}

/* Blocks a helper thread fills ahead of the loop, block k in slot k % RING.
 * Each field has one writer: the helper fills the slots and publishes each
 * block's index in ready[] once it is filled; the loop writes `reading` and
 * `stop`.  The helper fills only blocks past `reading` and less than RING
 * past it, so it never writes the slot the loop reads. */
typedef struct {
    const uint64_t *key;
    int64_t reading;     /* block the loop reads */
    int stop;            /* set once, when the run ends */
    int64_t ready[RING]; /* index published in each slot, -1 before any */
    double slot[RING][DRAW_BLOCK];
} ring;

/* the helper: fill the blocks after the loop's until told to stop, jumping
 * to reading + 1 whenever the loop has reached its next block; never waits
 * on the loop but by yielding the CPU, and allocates nothing */
static void *fill_ahead(void *arg)
{
    ring *R = arg;
    int64_t k = 0; /* the next block to fill */
    while (!__atomic_load_n(&R->stop, __ATOMIC_ACQUIRE)) {
        const int64_t reading = __atomic_load_n(&R->reading, __ATOMIC_ACQUIRE);
        if (k <= reading) {
            k = reading + 1;
        } else if (k - reading >= RING) {
            sched_yield();
            continue;
        }
        philox_block(R->key, k, R->slot[k % RING]);
        __atomic_store_n(&R->ready[k % RING], k, __ATOMIC_RELEASE);
        k++;
    }
    return NULL;
}

/* run()'s state that its out-of-line paths (refill, open_window,
 * append_series) reach through a pointer; the read position in the current
 * block is not here but in a reader, see draw() */
typedef struct {
    const sim_params *p;
    sim_result *r;
    int64_t series_cap;
    int64_t k;         /* index of the block being read, -1 before the first */
    ring *ring;        /* NULL while no helper runs */
    pthread_t helper;
    double block[DRAW_BLOCK];
} run_state;

/* the block being read (block[] or a ring slot) and the index of its next
 * uniform: a local of run() whose address only draw() takes */
typedef struct {
    const double *cur;
    int64_t bi;
} reader;

/* start the helper on a ring whose next block is k, if the host has a
 * second CPU and a thread can be made; else the loop fills every block */
static void start_helper(run_state *S, int64_t k)
{
    if (sysconf(_SC_NPROCESSORS_ONLN) < 2)
        return;
    ring *R = malloc(sizeof *R);
    if (!R)
        return;
    R->key = S->p->key;
    R->reading = k;
    R->stop = 0;
    for (int i = 0; i < RING; i++)
        R->ready[i] = -1;
    /* a signal for the process must go to a thread that runs Python */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    int err = pthread_create(&S->helper, NULL, fill_ahead, R);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    if (err)
        free(R);
    else
        S->ring = R;
}

static void stop_helper(run_state *S)
{
    if (!S->ring)
        return;
    __atomic_store_n(&S->ring->stop, 1, __ATOMIC_RELEASE);
    pthread_join(S->helper, NULL);
    free(S->ring);
}

/* gcc inlines no body as large as run() unasked, not even at -O3, and `bins`
 * would then stay a run-time test in every mode; NOINLINE keeps a cold path
 * out of run()'s body */
#if defined(__GNUC__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define NOINLINE __attribute__((noinline))
#else
#define ALWAYS_INLINE inline
#define NOINLINE
#endif

/* The next block: the ring's copy when the helper has published it, else
 * one the loop makes itself; the helper, seeing `reading` there, skips it.
 * The helper starts at the first refill, so a run of one block never starts
 * a thread.  Once per 512 draws: kept out of line so that run()'s hot path
 * stays small. */
static NOINLINE const double *refill(run_state *S)
{
    const int64_t k = ++S->k;
    if (k == 1)
        start_helper(S, k);
    ring *R = S->ring;
    if (R) {
        __atomic_store_n(&R->reading, k, __ATOMIC_RELEASE);
        if (__atomic_load_n(&R->ready[k % RING], __ATOMIC_ACQUIRE) == k)
            return R->slot[k % RING];
    }
    philox_block(S->p->key, k, S->block);
    return S->block;
}

/* Next uniform in [0, 1).  refill sees S but never the reader, so the reader
 * stays in registers: were the read position in *S, whose address refill
 * takes, any int64_t store of the loop might alias it and every draw would
 * go through memory. */
static inline double draw(run_state *S, reader *d)
{
    if (d->bi == DRAW_BLOCK) {
        d->cur = refill(S);
        d->bi = 0;
    }
    return d->cur[d->bi++];
}

/* zeroed occupancies, last-change times and starting histogram */
static int init_result(run_state *S)
{
    const sim_params *p = S->p;
    sim_result *r = S->r;
    memset(r, 0, sizeof *r);
    r->occ = calloc((size_t)p->n, sizeof *r->occ);
    r->last = calloc((size_t)p->n, sizeof *r->last);
    r->hist = calloc((size_t)p->hist_start, sizeof *r->hist);
    r->hist_len = p->hist_start;
    return r->occ && r->last && r->hist ? 0 : -1;
}

/* first event inside the window: every server's interval starts at t_start
 * and the series opens with the tracked server's occupancy */
static int open_window(run_state *S)
{
    const sim_params *p = S->p;
    sim_result *r = S->r;
    for (int64_t s = 0; s < p->n; s++)
        r->last[s] = p->t_start;
    if (reserve((void **)&r->series, &S->series_cap, 2, sizeof *r->series))
        return -1;
    r->series[0] = p->t_start;
    r->series[1] = (double)r->occ[p->tracked];
    r->series_rows = 1;
    return 0;
}

/* double the histogram until it covers occupancy o */
static NOINLINE int grow_hist(sim_result *r, int64_t o)
{
    while (o >= r->hist_len) {
        double *h = realloc(r->hist, (size_t)(2 * r->hist_len) * sizeof *h);
        if (!h)
            return -1;
        memset(h + r->hist_len, 0, (size_t)r->hist_len * sizeof *h);
        r->hist = h;
        r->hist_len *= 2;
    }
    return 0;
}

/* append the row (t, o) to the tracked server's series */
static NOINLINE int append_series(run_state *S, double t, int64_t o)
{
    sim_result *r = S->r;
    if (reserve((void **)&r->series, &S->series_cap, 2 * (r->series_rows + 1),
                sizeof *r->series))
        return -1;
    r->series[2 * r->series_rows] = t;
    r->series[2 * r->series_rows + 1] = (double)o;
    r->series_rows++;
    return 0;
}

/* time-weight server s's interval at occupancy o, then log its new value;
 * inline, with the rare growth and the tracked server's append out of line */
static inline int credit(run_state *S, int64_t s, int64_t o, int64_t o_new, double t)
{
    sim_result *r = S->r;
    if (o >= r->hist_len && grow_hist(r, o))
        return -1;
    r->hist[o] += t - r->last[s];
    r->last[s] = t;
    return s == S->p->tracked ? append_series(S, t, o_new) : 0;
}

/* scheme modes, the codes of flow_sim._D_CHOICES ... _BIN: d < n choices
 * (d = 1 included: one uniform pick), d >= n (least loaded), pull, shedding,
 * transfer to invite, transfer to least loaded, and the bin scheme */
enum { MODE_D_CHOICES = 0, MODE_LEAST = 1, MODE_PULL = 2, MODE_SHED = 3,
       MODE_XFER_INVITE = 4, MODE_XFER_LEAST = 5, MODE_BIN = 6 };

/* bin of flow `id`: the splitmix64 output function, reduced mod m */
static inline int64_t hash_bin(uint64_t id, uint64_t m)
{
    uint64_t z = id + UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    z ^= z >> 31;
    return (int64_t)(z % m);
}

/* The event loop of every mode.  sim_run calls it with a constant `bins`, so
 * the compiler emits one copy for the bin scheme and one for the flow-level
 * modes from this one source.
 *
 * Active flows live in slot[]: the flow's server, or in bin mode its bin.
 * Bin mode keeps a parallel stamp[]: the bin's move count at the flow's
 * arrival, or -1 when the flow arrived before the window.  The flow is
 * violated iff stamp >= 0 and its bin has moved since, which is read at its
 * departure or at the end of the run, so a move touches no per-flow state. */
static ALWAYS_INLINE int run(const sim_params *p, sim_result *r, const int bins)
{
    const int64_t n = p->n, mode = p->mode, low = p->low, high = p->high;
    const double lam_total = p->lam_total, inv_beta = p->inv_beta;
    const double t_start = p->t_start, t_stop = p->t_stop;
    const int need_invites = bins || mode == MODE_PULL || mode == MODE_XFER_INVITE;
    const int need_levels = !bins && (mode == MODE_LEAST || mode == MODE_XFER_LEAST);

    run_state S = {.p = p, .r = r, .k = -1};
    reader rd = {.bi = DRAW_BLOCK};
    int status = RUN_NOMEM;

    ilist invite = {0}, below = {0};
    int32_t *slot = NULL, *assignment = NULL;
    int64_t *level_pos = NULL, *bin_pos = NULL, *cands = NULL, *stamp = NULL;
    int64_t *bin_load = NULL, *bin_moves = NULL; /* active flows, moves so far */
    ilist *levels = NULL, *server_bins = NULL;
    int64_t n_levels = 0, levels_cap = 0, slot_cap = 0, stamp_cap = 0, cur_min = 0;

    if (init_result(&S))
        goto done;
    int64_t *occ = r->occ;

    if (need_invites) {
        /* invite (occ < low) and below-high (occ < high) lists of n empty
         * servers; low = 0 invites nobody: no occupancy is below zero */
        invite.pos = malloc((size_t)n * sizeof *invite.pos);
        below.pos = malloc((size_t)n * sizeof *below.pos);
        if (!invite.pos || !below.pos)
            goto done;
        for (int64_t s = 0; s < n; s++)
            if ((low > 0 && list_add(&invite, s)) || list_add(&below, s))
                goto done;
    }
    if (need_levels) {
        /* per-occupancy server buckets, all n servers at level 0 */
        level_pos = malloc((size_t)n * sizeof *level_pos);
        if (!level_pos || reserve((void **)&levels, &levels_cap, 1, sizeof *levels))
            goto done;
        levels[n_levels++] = (ilist){.pos = level_pos};
        for (int64_t s = 0; s < n; s++)
            if (list_add(&levels[0], s))
                goto done;
    }
    if (mode == MODE_D_CHOICES && !(cands = malloc((size_t)p->d * sizeof *cands)))
        goto done;
    if (bins) {
        /* bins dealt round-robin: bin b starts at server b mod n */
        const int64_t m = p->bins;
        assignment = malloc((size_t)m * sizeof *assignment);
        bin_pos = malloc((size_t)m * sizeof *bin_pos);
        server_bins = calloc((size_t)n, sizeof *server_bins);
        bin_load = calloc((size_t)m, sizeof *bin_load);
        bin_moves = calloc((size_t)m, sizeof *bin_moves);
        if (!assignment || !bin_pos || !server_bins || !bin_load || !bin_moves)
            goto done;
        for (int64_t s = 0; s < n; s++)
            server_bins[s].pos = bin_pos;
        for (int64_t b = 0; b < m; b++) {
            assignment[b] = (int32_t)(b % n);
            if (list_add(&server_bins[b % n], b))
                goto done;
        }
    }

    uint64_t next_id = 0;
    int64_t count = 0;
    double t = 0.0, flow_int = 0.0, prev_t = 0.0;
    int started = 0;
    for (;;) {
        double rate = lam_total + (double)count * inv_beta;
        double u = draw(&S, &rd);
        t += -log(1.0 - u) / rate;
        if (t >= t_stop)
            break;
        if (!started && t >= t_start) {
            started = 1;
            prev_t = t_start;
            if (open_window(&S))
                goto done;
        }
        if (started) {
            flow_int += (double)count * (t - prev_t);
            prev_t = t;
        }

        u = draw(&S, &rd);
        int64_t s, o, b = 0;
        if (u * rate < lam_total) {
            /* ----- arrival ----- */
            if (started)
                r->total_flows++;
            /* a bin arrival's server is dictated by its static bin: no draw */
            if (!bins)
                u = draw(&S, &rd);
            switch (bins ? MODE_BIN : mode) {
            case MODE_BIN:
                b = hash_bin(next_id++, (uint64_t)p->bins);
                s = assignment[b];
                break;
            case MODE_D_CHOICES: {
                int64_t nc = 1;
                cands[0] = (int64_t)(u * (double)n);
                while (nc < p->d) {
                    int64_t c = (int64_t)(draw(&S, &rd) * (double)n), seen = 0;
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
                        if (draw(&S, &rd) * (double)nb < 1.0)
                            s = c;
                    }
                }
                break;
            }
            case MODE_LEAST: {
                ilist *lb = &levels[cur_min];
                s = lb->a[(int64_t)(u * (double)lb->len)];
                break;
            }
            case MODE_PULL:
                s = pull_pick(u, &invite, &below);
                if (s < 0)
                    s = (int64_t)(u * (double)n);
                break;
            case MODE_SHED:
                s = (int64_t)(u * (double)n);
                if (occ[s] >= high) {
                    if (started)
                        r->violations++;
                    continue;
                }
                break;
            case MODE_XFER_INVITE:
                s = (int64_t)(u * (double)n);
                if (occ[s] >= high) {
                    if (started)
                        r->violations++;
                    u = draw(&S, &rd);
                    s = pull_pick(u, &invite, &below);
                    if (s < 0)
                        s = (int64_t)(u * (double)n);
                }
                break;
            default: /* MODE_XFER_LEAST */
                s = (int64_t)(u * (double)n);
                if (occ[s] >= high) {
                    if (started)
                        r->violations++;
                    ilist *lb = &levels[cur_min];
                    s = lb->a[(int64_t)(draw(&S, &rd) * (double)lb->len)];
                }
                break;
            }

            o = occ[s];
            occ[s] = o + 1;
            if (reserve((void **)&slot, &slot_cap, count + 1, sizeof *slot))
                goto done;
            if (bins) {
                if (reserve((void **)&stamp, &stamp_cap, count + 1, sizeof *stamp))
                    goto done;
                stamp[count] = started ? bin_moves[b] : -1;
                bin_load[b]++;
            }
            slot[count++] = (int32_t)(bins ? b : s);
            if (started && credit(&S, s, o, o + 1, t))
                goto done;
            if (need_invites) {
                if (o + 1 == low)
                    list_drop(&invite, s);
                if (o + 1 == high)
                    list_drop(&below, s);
            } else if (need_levels) {
                if (o + 1 >= n_levels) {
                    if (reserve((void **)&levels, &levels_cap, n_levels + 1,
                                sizeof *levels))
                        goto done;
                    levels[n_levels++] = (ilist){.pos = level_pos};
                }
                if (list_move(&levels[o], &levels[o + 1], s))
                    goto done;
                if (levels[o].len == 0 && o == cur_min)
                    while (levels[cur_min].len == 0)
                        cur_min++;
            }
            if (bins) {
                /* drain: shed bins until s is back at or below high, at most as
                 * many as s holds at the trigger; default: one bin per upward
                 * high -> high + 1 crossing */
                int64_t moves =
                    p->drain ? (o >= high ? server_bins[s].len : 0) : o == high;
                /* s holds the arriving flow's bin and drains at most the bins it
                 * held, so it always has one: only n = 1 skips, once per trigger */
                if (moves && n == 1) {
                    if (started)
                        r->skipped++;
                    moves = 0;
                }
                for (int64_t k = 0; k < moves && occ[s] > high; k++) {
                    ilist *here = &server_bins[s];
                    int32_t mb =
                        here->a[(int64_t)(draw(&S, &rd) * (double)here->len)];
                    /* the pull pick, else any server but s */
                    u = draw(&S, &rd);
                    int64_t dest = pull_pick(u, &invite, &below);
                    if (dest < 0) {
                        dest = (int64_t)(u * (double)(n - 1));
                        if (dest >= s)
                            dest++;
                    }
                    if (list_move(here, &server_bins[dest], mb))
                        goto done;
                    assignment[mb] = (int32_t)dest;
                    bin_moves[mb]++;
                    if (started)
                        r->reallocations++;

                    int64_t kf = bin_load[mb];
                    if (kf) {
                        int64_t o_old = occ[s], o_new = o_old - kf;
                        int64_t d_old = occ[dest], d_new = d_old + kf;
                        occ[s] = o_new;
                        occ[dest] = d_new;
                        if (started && (credit(&S, s, o_old, o_new, t) ||
                                        credit(&S, dest, d_old, d_new, t)))
                            goto done;
                        if (list_update(&invite, s, o_old < low, o_new < low) ||
                            list_update(&below, s, o_old < high, o_new < high) ||
                            list_update(&invite, dest, d_old < low, d_new < low) ||
                            list_update(&below, dest, d_old < high, d_new < high))
                            goto done;
                    }
                }
            }
        } else {
            /* ----- departure: uniform over active flows ----- */
            if (count == 0)
                continue;
            int64_t j = (int64_t)(draw(&S, &rd) * (double)count);
            s = slot[j]; /* in bin mode, the flow's bin */
            slot[j] = slot[--count];
            if (bins) {
                b = s;
                int64_t st = stamp[j];
                stamp[j] = stamp[count];
                bin_load[b]--;
                if (st >= 0 && bin_moves[b] != st)
                    r->violations++;
                s = assignment[b];
            }
            o = occ[s];
            occ[s] = o - 1;
            if (started && credit(&S, s, o, o - 1, t))
                goto done;
            if (need_invites) {
                if ((o == low && list_add(&invite, s)) ||
                    (o == high && list_add(&below, s)))
                    goto done;
            } else if (need_levels) {
                if (list_move(&levels[o], &levels[o - 1], s))
                    goto done;
                if (o - 1 < cur_min)
                    cur_min = o - 1;
            }
        }
    }
    if (bins)
        for (int64_t i = 0; i < count; i++)
            if (stamp[i] >= 0 && bin_moves[slot[i]] != stamp[i])
                r->violations++;
    status = RUN_OK;
    r->started = started;
    r->count = count;
    r->flow_int = flow_int;
    r->prev_t = prev_t;

done:
    stop_helper(&S);
    free(invite.a);
    free(invite.pos);
    free(below.a);
    free(below.pos);
    free(level_pos);
    free(cands);
    free(slot);
    free(stamp);
    for (int64_t k = 0; k < n_levels; k++)
        free(levels[k].a);
    free(levels);
    free(assignment);
    free(bin_pos);
    for (int64_t s = 0; server_bins && s < n; s++)
        free(server_bins[s].a);
    free(server_bins);
    free(bin_load);
    free(bin_moves);
    return status;
}

int sim_run(const sim_params *p, sim_result *r)
{
    return p->mode == MODE_BIN ? run(p, r, 1) : run(p, r, 0);
}

void sim_free(sim_result *r)
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

/* ------------------------------------------------------------------------ */
/* mean-field drift                                                         */
/* ------------------------------------------------------------------------ */

/* Join rules (mean_field.RULE_*): 0 d choices, 1 pull, 2 shedding,
 * 3 transfer to invite, 4 transfer to least loaded.  high = INT64_MAX means
 * no upper threshold. */
enum { RULE_POWER = 0, RULE_PULL = 1, RULE_SHEDDING = 2, RULE_INVITE = 3,
       RULE_LEAST = 4 };

typedef struct {
    int64_t rule, d, low, high;
    int64_t size;  /* tail levels: ds has `size` entries */
    int64_t width; /* padded tail length: sp has `width`, q `width - 1` */
    double lam, beta, rho, case_eps;
    double half_dt, dt, sixth_dt; /* ode_step's stage scales and step-end factor */
    double *q;
} drift_params;

/* q[j] = sp[j] - sp[j + 1] for from <= j < to */
static void tail_diff(const double *sp, double *q, int64_t from, int64_t to)
{
    for (int64_t j = from; j < to; j++)
        q[j] = sp[j] - sp[j + 1];
}

/* every server at or above `high`: dips below it absorb what they can, the
 * rest spreads uniformly; q starts zeroed (mean_field._fill_saturated) */
static void fill_saturated(const double *sp, double *q, int64_t nq, int64_t high,
                           double rho)
{
    double dip = (double)high * (1.0 - sp[high + 1]);
    if (rho <= dip) {
        q[high - 1] = 1.0;
        return;
    }
    q[high - 1] = dip / rho;
    double rem = (rho - dip) / rho;
    for (int64_t j = high; j < nq; j++)
        q[j] = rem * (sp[j] - sp[j + 1]);
}

static void pull_rule(const drift_params *p, const double *sp, double *q, int64_t nq)
{
    const int64_t low = p->low, high = p->high;
    const int finite_high = high != INT64_MAX;
    const double rho = p->rho, near_one = 1.0 - p->case_eps;
    const double s_low = sp[low], s_high = finite_high ? sp[high] : 0.0;

    if (s_low < near_one) {
        /* invites outstanding: every arrival lands below `low` */
        for (int64_t j = 0; j < low; j++)
            q[j] = (sp[j] - sp[j + 1]) / (1.0 - s_low);
        return;
    }
    if (!finite_high || s_high < near_one) {
        double dip = (double)low * (1.0 - sp[low + 1]);
        if (rho <= dip) {
            q[low - 1] = 1.0;
            return;
        }
        if (low >= 1)
            q[low - 1] = dip / rho;
        double rem = (rho - dip) / rho;
        int64_t hb = finite_high ? high : nq;
        for (int64_t j = low; j < hb; j++)
            q[j] = rem * (sp[j] - sp[j + 1]) / (1.0 - s_high);
        return;
    }
    fill_saturated(sp, q, nq, high, rho);
}

static void invite_rule(const drift_params *p, const double *sp, double *q, int64_t nq)
{
    const int64_t low = p->low, high = p->high;
    const double rho = p->rho, near_one = 1.0 - p->case_eps;
    const double s_low = sp[low], s_high = sp[high];

    if (s_low < near_one) {
        double boost = (1.0 - s_low + s_high) / (1.0 - s_low);
        for (int64_t j = 0; j < low; j++)
            q[j] = (sp[j] - sp[j + 1]) * boost;
        tail_diff(sp, q, low, high);
        return;
    }
    if (s_high < near_one) {
        double dip = (double)low * (1.0 - sp[low + 1]);
        tail_diff(sp, q, low, high);
        if (rho * s_high <= dip) {
            /* dips below `low` absorb every transfer */
            if (low >= 1)
                q[low - 1] = s_high;
            return;
        }
        if (low >= 1)
            q[low - 1] = dip / rho;
        double rem = (rho * s_high - dip) / rho;
        double boost = 1.0 + rem / (1.0 - s_high);
        for (int64_t j = low; j < high; j++)
            q[j] *= boost;
        return;
    }
    fill_saturated(sp, q, nq, high, rho);
}

static void least_rule(const drift_params *p, const double *sp, double *q, int64_t nq)
{
    const int64_t high = p->high;
    const double rho = p->rho, near_one = 1.0 - p->case_eps;
    /* least-loaded level: the first m with sp[m + 1] below 1; the zero padding
     * past the tail guarantees one */
    int64_t m = 0;
    while (m < nq - 1 && !(sp[m + 1] < near_one))
        m++;
    const double s_high = sp[high];
    const double dip = (double)m * (1.0 - sp[m + 1]);

    if (m < high) {
        if (rho * s_high <= dip) {
            if (m >= 1)
                q[m - 1] = s_high;
            tail_diff(sp, q, m, high);
            return;
        }
        if (m >= 1)
            q[m - 1] = dip / rho;
        q[m] = s_high + (rho - (double)m) * (1.0 - sp[m + 1]) / rho;
        tail_diff(sp, q, m + 1, high);
        return;
    }
    /* least-loaded level at or above `high`: pure greedy filling of dips */
    if (rho <= dip) {
        q[m - 1] = 1.0;
        return;
    }
    q[m - 1] = dip / rho;
    q[m] = (rho - dip) / rho;
}

/* Drift of the occupancy tail at the padded tail sp: writes every entry of
 * p->q with the scheme's join rule, then ds[i] = lam*q[i-1] -
 * (i*(sp[i] - sp[i+1]))/beta for 1 <= i < size; ds[0] is left alone. */
static void drift(const drift_params *p, const double *sp, double *ds)
{
    double *q = p->q;
    const int64_t nq = p->width - 1;

    if (p->rule == RULE_POWER) {
        /* sp**d as d - 1 rounded products, left to right, as
         * mean_field._power_of_d_rule takes it (unlike pow, a product rounds
         * the same on every host): q[j] = sp[j]**d one pass per product, then
         * the differences in place; each product pass and the difference
         * pass vectorizes at -O3 */
        double last = sp[nq];
        memcpy(q, sp, (size_t)nq * sizeof *q);
        for (int64_t k = 1; k < p->d; k++) {
            for (int64_t j = 0; j < nq; j++)
                q[j] *= sp[j];
            last *= sp[nq];
        }
        for (int64_t j = 0; j < nq - 1; j++)
            q[j] -= q[j + 1];
        q[nq - 1] -= last;
    } else if (p->rule == RULE_SHEDDING) {
        int64_t top = p->high < nq ? p->high : nq;
        tail_diff(sp, q, 0, top);
        memset(q + top, 0, (size_t)(nq - top) * sizeof *q);
    } else {
        memset(q, 0, (size_t)nq * sizeof *q);
        if (p->rule == RULE_PULL)
            pull_rule(p, sp, q, nq);
        else if (p->rule == RULE_INVITE)
            invite_rule(p, sp, q, nq);
        else
            least_rule(p, sp, q, nq);
    }

    /* the balance vectorizes at -O3 only with its bound in a local, since a
     * store to ds may alias *p, and with an int counter, since SSE2 has a
     * packed int-to-double conversion but none from int64_t (a tail of 2^31
     * levels would need 128 GiB of buffers); each lane's division rounds as
     * the scalar one does */
    const double lam = p->lam, beta = p->beta;
    const int size = (int)p->size;
    for (int i = 1; i < size; i++)
        ds[i] = lam * q[i - 1] - (double)i * (sp[i] - sp[i + 1]) / beta;
}

/* the larger of acc and x as np.maximum.reduce folds them: a NaN wins */
static inline double nan_max(double acc, double x)
{
    return acc >= x || isnan(acc) ? acc : x;
}

/* The dip-refill correction of a drift ds whose join buffer is p->q: when
 * 0 < sat < low and ds[sat] < 0, the refill demand -ds[sat] is covered as far
 * as lam*sum(q[sat..size-2]) allows, the sum taken left to right from 0.0,
 * and each level above sat gives up the same share of its arrivals.  low is
 * the invite threshold of the pull and invite rules and 0 for the rest, which
 * therefore take no correction. */
static void correct(const drift_params *p, int64_t sat, double *ds)
{
    if (!(0 < sat && sat < p->low && ds[sat] < 0.0))
        return;
    const int64_t size = p->size;
    const double *q = p->q;
    const double deficit = -ds[sat];
    double sum = 0.0;
    for (int64_t j = sat; j < size - 1; j++)
        sum += q[j];
    const double visible = p->lam * sum;
    /* Python's min(deficit, visible): the first unless the second is smaller */
    const double cover = visible < deficit ? visible : deficit;
    if (cover > 0.0) {
        ds[sat] += cover;
        const double share = p->lam * (cover / visible);
        for (int64_t j = sat + 1; j < size; j++)
            ds[j] = ds[j] - share * q[j - 1];
    }
}

/* The drift k1 at the padded tail s, corrected, into p->q and k1; returns
 * sup|k1| as np.maximum.reduce takes it (a NaN wins). */
double ode_drift(const drift_params *p, int64_t sat, const double *s, double *k1)
{
    drift(p, s, k1);
    correct(p, sat, k1);
    double sup = fabs(k1[0]);
    for (int64_t i = 1; i < p->size; i++)
        sup = nan_max(sup, fabs(k1[i]));
    return sup;
}

/* numpy's clip to [0, 1]: NaN and -0.0 come out unchanged */
static double clip_unit(double x)
{
    x = x < 0.0 ? 0.0 : x;
    return x > 1.0 ? 1.0 : x;
}

/* v = src clipped to [0, 1], levels 0..sat set to 1, then its running
 * minimum, as mean_field's NumPy projection computes it: np.minimum keeps
 * its first argument only when that is smaller or NaN, so a tie keeps the
 * later entry (and its sign of zero) and the first NaN spreads down.  The
 * pinned prefix is all 1.0, so the minimum starts at level sat */
static void project(const double *src, double *v, int64_t size, int64_t sat)
{
    for (int64_t i = 0; i < size; i++)
        v[i] = i <= sat ? 1.0 : clip_unit(src[i]);
    for (int64_t i = sat + 1; i < size; i++)
        if (v[i - 1] < v[i] || isnan(v[i - 1]))
            v[i] = v[i - 1];
}

/* One RK4 step from the padded tail s, whose corrected drift ode_drift left
 * in k1, the first row of the size-wide block k.  Stage i = 1, 2, 3 writes
 * g = project(s + scale_i*k_i) with scales dt/2, dt/2, dt on the first size
 * levels of the padded stage tail g, then the corrected drift there into p->q
 * and k_{i+1}.  The step end writes raw = s + sixth_dt*(k1 + 2*k2 + 2*k3 +
 * k4), summed in that order, and g = project(raw), sets *moved to whether g
 * differs from s in any bit, and copies g into s.  Returns sup|raw - s| as
 * np.maximum.reduce takes it (a NaN wins). */
double ode_step(const drift_params *p, int64_t sat, double *s, double *g, double *k,
                double *raw, int *moved)
{
    const int64_t size = p->size;
    const double scales[3] = {p->half_dt, p->half_dt, p->dt};
    for (int stage = 0; stage < 3; stage++) {
        const double scale = scales[stage], *k_in = k + stage * size;
        double *k_out = k + (stage + 1) * size;
        for (int64_t i = 0; i < size; i++)
            g[i] = s[i] + scale * k_in[i];
        project(g, g, size, sat);
        drift(p, g, k_out);
        correct(p, sat, k_out);
    }

    const double *k1 = k, *k2 = k + size, *k3 = k + 2 * size, *k4 = k + 3 * size;
    const double sixth_dt = p->sixth_dt;
    for (int64_t i = 0; i < size; i++) {
        double r = k1[i] + 2.0 * k2[i];
        r = r + 2.0 * k3[i];
        r = r + k4[i];
        raw[i] = s[i] + sixth_dt * r;
    }
    /* one pass takes the distance, compares the bits and copies: it measured
     * faster per step than memcmp then memcpy, and far faster than a compare
     * inside project */
    project(raw, g, size, sat);
    uint64_t diff = 0;
    double dist = fabs(raw[0] - g[0]);
    for (int64_t i = 0; i < size; i++) {
        uint64_t now, was;
        memcpy(&now, g + i, sizeof now);
        memcpy(&was, s + i, sizeof was);
        diff |= now ^ was;
        s[i] = g[i];
        dist = nan_max(dist, fabs(raw[i] - g[i]));
    }
    *moved = diff != 0;
    return dist;
}

/* ------------------------------------------------------------------------ */
/* mean-field step loop                                                     */
/* ------------------------------------------------------------------------ */

/* why ode_run returned: the index of its name in mean_field.STOP_REASONS */
enum { STOP_NONE = 0, STOP_RESIDUAL = 1, STOP_STATIONARY = 2 };

/* The state of one integration's step loop, carried from one ode_run call to
 * the next.  Levels 0..sat are the pinned prefix; pins and releases count the
 * levels that joined and left it.  quiet is 0 when the last step released a
 * level and 1 when it released none; it is 2 when, besides, that step changed
 * no bit of the tail and pinned nothing, and the step before released
 * nothing. */
typedef struct {
    double pin_tol, sat_tol, release_eps; /* mean_field.PIN_TOL, SAT_TOL and
                                             RELEASE_EPS */
    double stop_residual;                 /* > 0: both early stops are on */
    int64_t step, sat, pins, releases, quiet;
    double t, sup_k1, max_projection, last_projection;
} ode_loop;

/* may `level`, at tail value v, join the pinned prefix?  Within sat_tol of 1
 * it may; in the invite region below low the relaxation to 1 is asymptotic
 * and arbitrarily stiff, so it may once it is within pin_tol of 1 */
static int may_pin(const drift_params *p, const ode_loop *L, int64_t level, double v)
{
    return v >= 1.0 - L->sat_tol || (level < p->low && v >= 1.0 - L->pin_tol);
}

/* pin every level above the prefix that may join it, setting it to 1 */
static void pin(const drift_params *p, ode_loop *L, double *s)
{
    while (L->sat + 1 < p->size && may_pin(p, L, L->sat + 1, s[L->sat + 1])) {
        L->sat++;
        L->pins++;
        s[L->sat] = 1.0;
    }
}

/* k1 at s, corrected, and its sup-norm; then release every pinned level whose
 * drift pulls it below 1 */
static void drift_and_release(const drift_params *p, ode_loop *L, const double *s,
                              double *k1)
{
    L->sup_k1 = ode_drift(p, L->sat, s, k1);
    while (L->sat > 0 && k1[L->sat] < -L->release_eps) {
        L->sat--;
        L->releases++;
    }
}

/* The step loop of mean_field.integrate_ode, as its NumPy engine runs it,
 * from step L->step until step `until` or an early stop.  At step 0 it first
 * pins the start and takes its drift, which sets quiet to 1 unless it
 * released a level.  Before each step, with stop_residual set, it stops on
 * sup|k1| < stop_residual, or on quiet == 2 with sup|k1| not NaN: k1 depends
 * only on the tail and the prefix it was taken at, and with no release in the
 * step before, the k1 in hand was taken at the current prefix, so every later
 * step repeats the last one bit for bit.  A step is ode_step, then pinning,
 * t += dt, and the drift with its releases.  Returns the STOP_* code;
 * STOP_NONE means step `until` was reached. */
int64_t ode_run(const drift_params *p, ode_loop *L, double *s, double *g, double *k,
                double *raw, int64_t until)
{
    const int early = L->stop_residual > 0.0;
    if (L->step == 0) {
        pin(p, L, s);
        drift_and_release(p, L, s, k);
        L->quiet = L->releases == 0;
    }
    while (L->step < until) {
        if (early) {
            if (L->sup_k1 < L->stop_residual)
                return STOP_RESIDUAL;
            if (L->quiet == 2 && !isnan(L->sup_k1))
                return STOP_STATIONARY;
        }
        const int64_t pins = L->pins, releases = L->releases;
        int moved;
        L->last_projection = ode_step(p, L->sat, s, g, k, raw, &moved);
        if (L->last_projection > L->max_projection)
            L->max_projection = L->last_projection;
        pin(p, L, s);
        L->t += p->dt;
        L->step++;
        drift_and_release(p, L, s, k);
        L->quiet = L->releases != releases ? 0
                   : !moved && L->pins == pins && L->quiet ? 2 : 1;
    }
    return STOP_NONE;
}

const int64_t SIZEOF_SIM_PARAMS = sizeof(sim_params);
const int64_t SIZEOF_SIM_RESULT = sizeof(sim_result);
const int64_t SIZEOF_DRIFT_PARAMS = sizeof(drift_params);
const int64_t SIZEOF_ODE_LOOP = sizeof(ode_loop);

/* each enum in declaration order, and the `high` that means no threshold */
const int64_t MODE_CODES[] = {MODE_D_CHOICES, MODE_LEAST, MODE_PULL, MODE_SHED,
                              MODE_XFER_INVITE, MODE_XFER_LEAST, MODE_BIN};
const int64_t RULE_CODES[] = {RULE_POWER, RULE_PULL, RULE_SHEDDING, RULE_INVITE,
                              RULE_LEAST};
const int64_t STOP_CODES[] = {STOP_NONE, STOP_RESIDUAL, STOP_STATIONARY};
const int64_t NO_CAP = INT64_MAX;
