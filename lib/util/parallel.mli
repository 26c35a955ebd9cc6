(** A fixed-size work-stealing domain pool for fan-out over independent
    jobs.

    The measurement engine evaluates thousands of (program,
    configuration) points whose simulations are independent; this pool
    spreads them over the machine's cores with plain stdlib domains —
    no external dependencies.

    Scheduling: every worker owns a deque. A batch is dealt round-robin
    across the deques; owners take from the front of their own deque
    and an idle worker steals from the back of another's (the two ends
    of a Chase-Lev deque, mutex-guarded). Stealing keeps domains busy
    at batch tails, where job costs are heavily skewed — an 8-core/SMT4
    simulation costs ~10x a 1-core/SMT1 one. The domain that calls
    {!map} is worker 0: it works through its own deque and steals like
    the others before it waits for the jobs still running elsewhere.

    Semantics:
    - {!map} and {!map_chunked} preserve the order of the input list;
      the result is indistinguishable from [List.map] applied
      left-to-right (jobs must therefore be independent and
      deterministic, which every simulation job is by construction).
      The optional [cost] hint only reorders {e execution} (heaviest
      first), never results.
    - A pool of size 1 — and any call made {e from inside} a pool
      worker — degrades to sequential execution, so nested maps can
      never deadlock on the job deques.
    - Fan-out is {e adaptive}: a batch without enough parallel width
      to amortise domain wakeup/steal overhead (see {!worthwhile}) also
      runs sequentially.
      Either execution produces bit-identical results, so the decision
      is pure scheduling; {!serial_fallbacks} / {!parallel_batches}
      count the outcomes.
    - If any job raises, the exception of the lowest-indexed failing
      job is re-raised in the caller once all jobs have drained —
      regardless of which worker ran or stole the failing job. *)

type t

val create : int -> t
(** [create n] makes a pool of [n] workers (clamped to at least 1):
    [n] domains compute every batch that fans out. The caller of {!map}
    is worker 0, so only [n - 1] domains are spawned; a size-1 pool
    spawns none and runs sequentially. The caller counts as a worker
    ({!in_worker} is true) while it runs jobs, and is restored
    afterwards, also when a job raised. *)

val size : t -> int
(** Number of workers, the caller included ([1] means sequential). *)

val steal_count : t -> int
(** Total jobs executed by a worker other than the one they were dealt
    to, since pool creation. Monotone; a scheduler health metric
    (exported to BENCH_sim.json), not part of any determinism
    contract. *)

val shutdown : t -> unit
(** Stop the workers and join them (queued jobs are drained first).
    Idempotent. Maps on a shut-down pool run sequentially. *)

val map :
  ?cost:('a -> float) ->
  ?min_jobs_per_core:float ->
  t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: one job per element. [cost] is a
    scheduling hint — jobs are started heaviest-first (ties broken by
    input position) so long jobs don't land at the batch tail; it has
    no effect on the result.

    The batch fans out only when {!worthwhile} says the parallelism
    can amortise domain overhead; otherwise it runs sequentially in
    the caller (bit-identical either way). [min_jobs_per_core]
    (default {!default_min_jobs_per_core}) sets the threshold — [0.] forces
    fan-out of any batch with width >= 2, large values force serial
    (tests use both). *)

val auto_chunk : jobs:int -> workers:int -> int
(** The chunk size {!map_chunked} derives when [?chunk] is omitted:
    ceiling division of [jobs] targeting ~8 chunks per worker, so the
    steal scheduler has slack to rebalance skewed tails while queue
    traffic stays amortised. Always ≥ 1; small inputs get chunk 1
    (plain {!map}). Exposed for tests and for callers that want to
    report the effective granularity. *)

val map_chunked :
  ?chunk:int ->
  ?cost:('a -> float) ->
  ?min_jobs_per_core:float ->
  t -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map} but groups elements into chunks to amortise queue
    traffic when jobs are small. [chunk] overrides the {!auto_chunk}
    default. A chunk's cost is the sum of its members'; result order is
    input order either way. The adaptive fan-out decision is taken at
    chunk granularity. *)

(** {2 Adaptive fan-out}

    Fanning a batch across domains only pays when the batch carries
    enough {e parallel width}: speedup is bounded by
    [total_cost / max_cost] (no schedule finishes before the largest
    job), and a pool whose workers can't each get a job's worth of
    work mostly pays wakeups. Batches below the threshold run
    sequentially in the caller — results are bit-identical by the
    {!map} contract, so the decision is pure scheduling. *)

val effective_width : ('a -> float) option -> 'a array -> float
(** [min jobs (total_cost / max_cost)] — the batch's usable
    parallelism in "largest-job equivalents"; just [jobs] without a
    cost hint (or when every cost is <= 0). *)

val worthwhile :
  size:int -> jobs:int -> width:float -> min_jobs_per_core:float -> bool
(** The fan-out predicate: a pool of [size] workers fans out a batch
    iff [size > 1], [jobs >= 2], [width >= 2] and
    [width >= min_jobs_per_core * size]. Exposed pure for tests. *)

val default_min_jobs_per_core : float
(** 0.25 — deliberately permissive: speedup is bounded by the batch's
    width, not the pool's size (a width-6 batch on 8 workers still
    wins ~6x), so the per-core criterion only rejects batches so thin
    that most domains would wake for nothing. *)

val parallel_batches : t -> int
(** Batches (>= 2 jobs) this pool fanned out since creation. Monotone
    telemetry for BENCH_sim.json, like {!steal_count}. *)

val serial_fallbacks : t -> int
(** Batches (>= 2 jobs) this pool ran sequentially — adaptive
    fallback, nested calls, or a size-1 pool. *)

val in_worker : unit -> bool
(** True when called from inside a pool job — on a spawned worker, or
    on the caller while it works its share of a batch (nested maps
    degrade). *)

val detected_cores : unit -> int
(** Cores available to this process
    ([Domain.recommended_domain_count ()]). *)

val requested_size : unit -> int
(** The pool size the environment asks for: [MP_POOL_SIZE] when set to
    a positive integer, otherwise {!detected_cores}. Reported alongside
    the effective size in BENCH_sim.json so an oversubscribed or capped
    pool is visible in the artifact. *)

val default_size : unit -> int
(** The {e effective} pool size used by {!global}: an explicit
    [MP_POOL_SIZE] verbatim (deliberate pinning is honoured, even past
    the core count), otherwise {!requested_size} capped at
    {!detected_cores} — a pool never oversubscribes a small machine by
    default. *)

val global : unit -> t
(** The process-wide shared pool, created on first use with
    {!default_size} workers and shut down at exit. *)

val shutdown_global : unit -> unit
(** Shut down and drop the {!global} pool now (a later {!global} call
    creates a fresh one). Explicit counterpart to the [at_exit] hook
    for exit paths that want worker domains joined deterministically —
    the CLI and the bench harness call it before returning. Idempotent
    and safe when no global pool was ever created. *)
