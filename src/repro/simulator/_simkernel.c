/* Event-loop replay kernel of the compiled-graph simulator.
 *
 * This is the C twin of the pure-Python loop in repro/simulator/fastpath.py
 * (_simulate_python): one general multi-node event loop that also covers the
 * single-node case.  Every float operation, comparison and event-ordering
 * rule matches the Python loop and the reference simulate_graph exactly:
 *
 *  - events are ordered by (time, sequence number) — a total order, so any
 *    binary-heap layout pops the identical event sequence;
 *  - all per-task float terms arrive pre-folded (the replay arrays built by
 *    SimGraphCache.replay_arrays_np with the reference association order);
 *    the loop only selects, adds and compares IEEE doubles in the same order
 *    the Python loop does;
 *  - fault Bernoullis are consumed from a pre-drawn uniform block (the same
 *    chunked generator sequence the Python loop buffers), with the identical
 *    conditional draw-cursor discipline.
 *
 * Compiled with -ffp-contract=off so no multiply-add contraction can change
 * results (the loop performs no multiplications, but the flag makes the
 * guarantee explicit).  Built lazily by repro.simulator.backend via the
 * system C compiler; the Python loop is the fallback where no compiler is
 * available.
 */

#include <stdlib.h>
#include <string.h>

typedef long long i64;

/* Event kinds, matching fastpath.py. */
#define EV_READY 0
#define EV_FREE 1
#define EV_SPARE_FREE 2
#define EV_COMPLETE 3

/* Return codes. */
#define OK 0
#define ERR_ALLOC 1
#define ERR_HEAP_OVERFLOW 2
#define ERR_DRAWS_EXHAUSTED 3

/* ------------------------------------------------------------------ */
/* (time, seq) binary min-heap with (kind, idx) payload.              */

typedef struct {
    double *time;
    i64 *seq;
    int *kind;
    i64 *idx;
    i64 len;
    i64 cap;
} Heap;

static int heap_less(const Heap *h, i64 a, i64 b) {
    if (h->time[a] < h->time[b]) return 1;
    if (h->time[a] > h->time[b]) return 0;
    return h->seq[a] < h->seq[b];
}

static void heap_swap(Heap *h, i64 a, i64 b) {
    double t = h->time[a]; h->time[a] = h->time[b]; h->time[b] = t;
    i64 s = h->seq[a]; h->seq[a] = h->seq[b]; h->seq[b] = s;
    int k = h->kind[a]; h->kind[a] = h->kind[b]; h->kind[b] = k;
    i64 i = h->idx[a]; h->idx[a] = h->idx[b]; h->idx[b] = i;
}

static int heap_push(Heap *h, double time, i64 seq, int kind, i64 idx) {
    if (h->len >= h->cap) return 0;
    i64 pos = h->len++;
    h->time[pos] = time; h->seq[pos] = seq; h->kind[pos] = kind; h->idx[pos] = idx;
    while (pos > 0) {
        i64 parent = (pos - 1) / 2;
        if (!heap_less(h, pos, parent)) break;
        heap_swap(h, pos, parent);
        pos = parent;
    }
    return 1;
}

static void heap_pop(Heap *h, double *time, int *kind, i64 *idx) {
    *time = h->time[0]; *kind = h->kind[0]; *idx = h->idx[0];
    h->len--;
    if (h->len == 0) return;
    h->time[0] = h->time[h->len]; h->seq[0] = h->seq[h->len];
    h->kind[0] = h->kind[h->len]; h->idx[0] = h->idx[h->len];
    i64 pos = 0;
    for (;;) {
        i64 left = 2 * pos + 1, right = left + 1, best = pos;
        if (left < h->len && heap_less(h, left, best)) best = left;
        if (right < h->len && heap_less(h, right, best)) best = right;
        if (best == pos) break;
        heap_swap(h, pos, best);
        pos = best;
    }
}

/* Plain int min-heap (the per-node ready queues hold dense task indices). */

static void iheap_push(i64 *heap, i64 *len, i64 value) {
    i64 pos = (*len)++;
    heap[pos] = value;
    while (pos > 0) {
        i64 parent = (pos - 1) / 2;
        if (heap[pos] >= heap[parent]) break;
        i64 t = heap[pos]; heap[pos] = heap[parent]; heap[parent] = t;
        pos = parent;
    }
}

static i64 iheap_pop(i64 *heap, i64 *len) {
    i64 top = heap[0];
    (*len)--;
    if (*len == 0) return top;
    heap[0] = heap[*len];
    i64 pos = 0;
    for (;;) {
        i64 left = 2 * pos + 1, right = left + 1, best = pos;
        if (left < *len && heap[left] < heap[best]) best = left;
        if (right < *len && heap[right] < heap[best]) best = right;
        if (best == pos) break;
        i64 t = heap[pos]; heap[pos] = heap[best]; heap[best] = t;
        pos = best;
    }
    return top;
}

/* ------------------------------------------------------------------ */

/* Replay one compiled graph on one machine; see fastpath.py for the
 * reference semantics this mirrors bit for bit. */
int simulate_kernel(
    i64 n, i64 n_nodes, i64 cores_per_node, i64 spares_per_node,
    double net_latency, double net_bandwidth,
    int contention, int collect,
    double p_crash, double p_sdc, double decision_s,
    const double *dur, const double *mem,
    const double *core_busy0, const double *rep_core_busy,
    const double *completion_spare, const double *core_busy_nospare,
    const double *completion_nospare, const double *overhead_rep,
    const double *restore_dur, const double *restore_dur_vote,
    const i64 *succ_indptr, const i64 *succ_indices, const double *edge_bytes,
    const i64 *in_degree, const i64 *node_of, const unsigned char *is_replicated,
    const double *uniforms, i64 n_uniforms,
    double *out_scalars, /* makespan, work, overhead, recovery, max_node_mem */
    i64 *out_counts,     /* crashes, sdcs, replicated, n_started, draws */
    double *start_at, double *finish_at, double *overhead_at, double *recovery_at)
{
    const int crash_mid = (0.0 < p_crash) && (p_crash < 1.0);
    const int crash_hi = p_crash >= 1.0;
    const int sdc_mid = (0.0 < p_sdc) && (p_sdc < 1.0);
    const int sdc_hi = p_sdc >= 1.0;

    int rc = OK;
    i64 dpos = 0;

    i64 crashes = 0, sdcs = 0, replicated_count = 0, n_started = 0;
    double total_overhead = 0.0, total_recovery = 0.0, total_work = 0.0;
    double makespan = 0.0;

    /* Workspace. */
    Heap heap;
    heap.cap = 4 * n + 8;
    heap.time = (double *)malloc((size_t)heap.cap * sizeof(double));
    heap.seq = (i64 *)malloc((size_t)heap.cap * sizeof(i64));
    heap.kind = (int *)malloc((size_t)heap.cap * sizeof(int));
    heap.idx = (i64 *)malloc((size_t)heap.cap * sizeof(i64));
    heap.len = 0;
    i64 *pending = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    double *earliest = (double *)malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    i64 *free_cores = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *free_spares = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    double *node_mem = (double *)malloc((size_t)n_nodes * sizeof(double));
    /* Per-node ready heaps share one backing array: each task enters its
     * node's queue exactly once, so node slices sized by task count suffice. */
    i64 *node_count = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *ready_off = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *ready_len = (i64 *)malloc((size_t)n_nodes * sizeof(i64));
    i64 *ready = (i64 *)malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));

    if (!heap.time || !heap.seq || !heap.kind || !heap.idx || !pending ||
        !earliest || !free_cores || !free_spares || !node_mem || !node_count ||
        !ready_off || !ready_len || !ready) {
        rc = ERR_ALLOC;
        goto done;
    }

    memcpy(pending, in_degree, (size_t)n * sizeof(i64));
    for (i64 i = 0; i < n; i++) earliest[i] = 0.0;
    for (i64 nid = 0; nid < n_nodes; nid++) {
        free_cores[nid] = cores_per_node;
        free_spares[nid] = spares_per_node;
        node_mem[nid] = 0.0;
        node_count[nid] = 0;
        ready_len[nid] = 0;
    }
    for (i64 i = 0; i < n; i++) node_count[node_of[i]]++;
    i64 off = 0;
    for (i64 nid = 0; nid < n_nodes; nid++) {
        ready_off[nid] = off;
        off += node_count[nid];
    }

    i64 seq = 0;
    for (i64 i = 0; i < n; i++) {
        if (pending[i] == 0) {
            if (!heap_push(&heap, 0.0, seq, EV_READY, i)) { rc = ERR_HEAP_OVERFLOW; goto done; }
            seq++;
        }
    }

    while (heap.len > 0) {
        double now;
        int kind;
        i64 i;
        heap_pop(&heap, &now, &kind, &i);
        i64 nid = node_of[i];
        if (kind == EV_READY) {
            iheap_push(ready + ready_off[nid], &ready_len[nid], i);
        } else if (kind == EV_FREE) {
            free_cores[nid]++;
        } else if (kind == EV_SPARE_FREE) {
            free_spares[nid]++;
            continue;
        } else { /* EV_COMPLETE */
            for (i64 k = succ_indptr[i]; k < succ_indptr[i + 1]; k++) {
                i64 s = succ_indices[k];
                double delay = 0.0;
                if (node_of[s] != nid) {
                    delay = net_latency + edge_bytes[k] / net_bandwidth;
                }
                double arrival = now + delay;
                if (arrival > earliest[s]) earliest[s] = arrival;
                pending[s]--;
                if (pending[s] == 0) {
                    double at = now > earliest[s] ? now : earliest[s];
                    if (!heap_push(&heap, at, seq, EV_READY, s)) { rc = ERR_HEAP_OVERFLOW; goto done; }
                    seq++;
                }
            }
        }

        /* try_start(nid): drain the node's ready heap while cores are free. */
        while (free_cores[nid] > 0 && ready_len[nid] > 0) {
            i = iheap_pop(ready + ready_off[nid], &ready_len[nid]);
            free_cores[nid]--;
            int use_spare = 0;
            int crash0, crash1 = 0, sdc0, sdc1 = 0;
            double core_busy, completion, recovery, overhead;
            if (is_replicated[i]) {
                replicated_count++;
                if (free_spares[nid] > 0) {
                    free_spares[nid]--;
                    use_spare = 1;
                    core_busy = rep_core_busy[i];
                    completion = completion_spare[i];
                } else {
                    core_busy = core_busy_nospare[i];
                    completion = completion_nospare[i];
                }
                if (crash_mid) {
                    if (dpos + 2 > n_uniforms) { rc = ERR_DRAWS_EXHAUSTED; goto done; }
                    crash0 = uniforms[dpos++] < p_crash;
                    crash1 = uniforms[dpos++] < p_crash;
                } else {
                    crash0 = crash1 = crash_hi;
                }
                if (sdc_mid) {
                    if (crash0) {
                        sdc0 = 0;
                    } else {
                        if (dpos >= n_uniforms) { rc = ERR_DRAWS_EXHAUSTED; goto done; }
                        sdc0 = uniforms[dpos++] < p_sdc;
                    }
                    if (crash1) {
                        sdc1 = 0;
                    } else {
                        if (dpos >= n_uniforms) { rc = ERR_DRAWS_EXHAUSTED; goto done; }
                        sdc1 = uniforms[dpos++] < p_sdc;
                    }
                } else {
                    sdc0 = (!crash0) && sdc_hi;
                    sdc1 = (!crash1) && sdc_hi;
                }
                crashes += crash0 + crash1;
                sdcs += sdc0 + sdc1;
                if (crash0 && crash1) {
                    recovery = restore_dur[i];
                    completion += recovery;
                    total_recovery += recovery;
                } else if ((sdc0 != sdc1) && !(crash0 || crash1)) {
                    recovery = restore_dur_vote[i];
                    completion += recovery;
                    total_recovery += recovery;
                } else {
                    recovery = 0.0;
                }
                overhead = overhead_rep[i];
            } else {
                if (crash_mid) {
                    if (dpos >= n_uniforms) { rc = ERR_DRAWS_EXHAUSTED; goto done; }
                    crash0 = uniforms[dpos++] < p_crash;
                } else {
                    crash0 = crash_hi;
                }
                if (sdc_mid) {
                    if (crash0) {
                        sdc0 = 0;
                    } else {
                        if (dpos >= n_uniforms) { rc = ERR_DRAWS_EXHAUSTED; goto done; }
                        sdc0 = uniforms[dpos++] < p_sdc;
                    }
                } else {
                    sdc0 = (!crash0) && sdc_hi;
                }
                crashes += crash0;
                sdcs += sdc0;
                if (crash0) {
                    recovery = dur[i];
                    core_busy = core_busy0[i] + recovery;
                    total_recovery += recovery;
                } else {
                    recovery = 0.0;
                    core_busy = core_busy0[i];
                }
                completion = core_busy;
                overhead = decision_s;
            }

            total_overhead += overhead;
            total_work += dur[i];
            if (contention) node_mem[nid] += mem[i];
            double finish = now + completion;
            if (finish > makespan) makespan = finish;
            if (collect) {
                start_at[i] = now;
                finish_at[i] = finish;
                overhead_at[i] = overhead;
                recovery_at[i] = recovery;
            }
            n_started++;
            /* Spare release precedes core release at equal timestamps, as in
             * the reference loop. */
            if (use_spare) {
                if (!heap_push(&heap, now + core_busy, seq, EV_SPARE_FREE, i)) { rc = ERR_HEAP_OVERFLOW; goto done; }
                seq++;
            }
            if (!heap_push(&heap, now + core_busy, seq, EV_FREE, i)) { rc = ERR_HEAP_OVERFLOW; goto done; }
            seq++;
            if (!heap_push(&heap, finish, seq, EV_COMPLETE, i)) { rc = ERR_HEAP_OVERFLOW; goto done; }
            seq++;
        }
    }

    double max_node_mem = 0.0;
    for (i64 nid = 0; nid < n_nodes; nid++) {
        if (node_mem[nid] > max_node_mem) max_node_mem = node_mem[nid];
    }
    out_scalars[0] = makespan;
    out_scalars[1] = total_work;
    out_scalars[2] = total_overhead;
    out_scalars[3] = total_recovery;
    out_scalars[4] = max_node_mem;
    out_counts[0] = crashes;
    out_counts[1] = sdcs;
    out_counts[2] = replicated_count;
    out_counts[3] = n_started;
    out_counts[4] = dpos;

done:
    free(heap.time); free(heap.seq); free(heap.kind); free(heap.idx);
    free(pending); free(earliest); free(free_cores); free(free_spares);
    free(node_mem); free(node_count); free(ready_off); free(ready_len); free(ready);
    return rc;
}

/* Replay a whole seed batch: lane j consumes uniforms row j and writes its
 * outputs at lane offsets.  One call amortises the Python->C transition over
 * the batch. */
int simulate_kernel_batch(
    i64 n_lanes,
    i64 n, i64 n_nodes, i64 cores_per_node, i64 spares_per_node,
    double net_latency, double net_bandwidth,
    int contention, int collect,
    double p_crash, double p_sdc, double decision_s,
    const double *dur, const double *mem,
    const double *core_busy0, const double *rep_core_busy,
    const double *completion_spare, const double *core_busy_nospare,
    const double *completion_nospare, const double *overhead_rep,
    const double *restore_dur, const double *restore_dur_vote,
    const i64 *succ_indptr, const i64 *succ_indices, const double *edge_bytes,
    const i64 *in_degree, const i64 *node_of, const unsigned char *is_replicated,
    const double *uniforms, i64 n_uniforms, /* n_lanes rows of n_uniforms */
    double *out_scalars, /* n_lanes x 5 */
    i64 *out_counts,     /* n_lanes x 5 */
    double *start_at, double *finish_at, double *overhead_at, double *recovery_at /* n_lanes x n */)
{
    for (i64 lane = 0; lane < n_lanes; lane++) {
        int rc = simulate_kernel(
            n, n_nodes, cores_per_node, spares_per_node,
            net_latency, net_bandwidth, contention, collect,
            p_crash, p_sdc, decision_s,
            dur, mem, core_busy0, rep_core_busy, completion_spare,
            core_busy_nospare, completion_nospare, overhead_rep,
            restore_dur, restore_dur_vote,
            succ_indptr, succ_indices, edge_bytes, in_degree, node_of,
            is_replicated,
            uniforms + lane * n_uniforms, n_uniforms,
            out_scalars + lane * 5, out_counts + lane * 5,
            collect ? start_at + lane * n : start_at,
            collect ? finish_at + lane * n : finish_at,
            collect ? overhead_at + lane * n : overhead_at,
            collect ? recovery_at + lane * n : recovery_at);
        if (rc != OK) return rc;
    }
    return OK;
}
