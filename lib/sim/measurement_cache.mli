(** Content-addressed memoization of measurements, in memory and
    optionally on disk.

    The search drivers re-measure identical (program, configuration)
    points constantly — GA elitism carries points across generations,
    crossover regenerates previously seen sequences, and phased
    workloads repeat their phase programs. Measurements are
    deterministic given (machine seed, program, configuration,
    warmup/measure), so a content-addressed cache returns the exact
    measurement the simulation would have produced.

    Keys digest everything the simulation depends on: the machine seed,
    the configuration, the warmup/measure window, the run name (the
    per-run RNG is seeded from it), a structural fingerprint of every
    per-thread program (opcodes, operands, immediates, memory targets,
    branch patterns, register initialisation and the memory
    distribution) and, via the optional [uarch] argument, the
    micro-architecture definition itself.

    {2 Disk persistence}

    A cache created with [~disk] also persists entries under
    [disk.dir] and consults the directory on in-memory misses —
    repeated harness invocations skip every point a previous run
    already simulated. Entries are frames appended to one segment per
    process ([<namespace>-<pid>-<nonce>.seg], see {!Mp_util.Disk_log}),
    so persisting a measurement costs one buffered append rather than
    a file creation. The namespace stamps the schema version {e and a
    digest of the running executable}: entries written by a different
    build are ignored (and pruned on first use), because a rebuilt
    simulator may map the same key to a different measurement. Torn,
    corrupt or wrong-version frames are misses, never errors; only
    checksum-verified bytes are unmarshalled.

    All operations are domain-safe: the table is guarded by a mutex so
    a {!Machine.run_batch} fan-out can share one cache. *)

type t

type disk = { dir : string; namespace : string }

val schema_version : int
(** Bumped when the on-disk entry layout changes. *)

val namespace : unit -> string
(** ["v<schema>-<digest of the running executable>"] — the prefix under
    which this build's entries live. *)

val env_disk : unit -> disk option
(** The disk configuration the environment selects: [None] when
    [MP_CACHE] is [off]/[0]/[false]/[no], otherwise the directory named
    by [MP_CACHE_DIR] (default ["_mp_cache"]) with {!namespace}. This
    is what {!Machine.create} uses. *)

val create : ?disk:disk -> unit -> t
(** [create ()] is purely in-memory; [create ~disk ()] also reads and
    writes [disk.dir] (created on first write). Once per process, files
    of other namespaces are pruned from the directory and its [replay/]
    store, and when [MP_CACHE_MAX_MB] is set both are {!gc}'d down to
    that bound. *)

(** {2 Housekeeping}

    The directory otherwise grows without limit: the current build's
    segments accumulate across runs, and every rebuild opens a fresh
    namespace. Both functions cover the measurement cache (the
    directory itself) and the replay store ([replay/] inside it). *)

type gc_stats = {
  entries : int;      (** segments examined *)
  removed : int;      (** segments deleted by this sweep *)
  bytes_before : int;
  bytes_after : int;
}

val env_max_bytes : unit -> int option
(** The size bound the environment selects: [MP_CACHE_MAX_MB] parsed as
    a positive number of mebibytes ([None] when unset or unparsable). *)

val gc : ?max_bytes:int -> string -> gc_stats
(** [gc dir] deletes whole segments from a cache directory and its
    replay store, oldest mtime first (path breaks ties, so eviction
    order is deterministic), until their total size is at most
    [max_bytes] (default {!env_max_bytes}; a no-op sweep when neither
    gives a bound). A deleted segment's entries are simply future
    misses, so running [gc] against a live cache is safe. Best-effort:
    IO errors skip the segment rather than raise. *)

type disk_stats = {
  ds_segments : int; (** segment files in the directory *)
  ds_entries : int;  (** distinct keys with an intact frame *)
  ds_bytes : int;    (** total size of the segments *)
}

val disk_stats : string -> disk_stats
(** Read-only scan of one store's directory — the cache root or its
    [replay/] — for what [mp-cache stat] prints. A missing directory
    reports all zeros. *)

val persistent : t -> bool

type stats = {
  hits : int;      (** lookups served without computing (memory or disk) *)
  misses : int;    (** computations actually executed *)
  disk_hits : int; (** the subset of [hits] loaded from disk *)
}

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 when nothing was looked up. *)

val reset_stats : t -> unit

val clear : t -> unit
(** Drop the in-memory table and the counters (disk entries are kept). *)

val length : t -> int
(** Number of memoized measurements in memory. *)

val uarch_fingerprint : Mp_uarch.Uarch_def.t -> string
(** Digest of a micro-architecture definition, for the [uarch] key
    component — two machines with different uarchs must never share an
    entry. *)

val key :
  ?uarch:string ->
  ?seed:int ->
  config:Mp_uarch.Uarch_def.config ->
  warmup:int ->
  measure:int ->
  name:string ->
  Mp_codegen.Ir.t array ->
  string
(** Digest of one measurement job. The array holds the per-thread
    programs (a single element for homogeneous deployment — replication
    over SMT threads is captured by [config]); [uarch] is a
    {!uarch_fingerprint} (default empty for callers with a fixed
    uarch). Omit [seed] for seed-independent measurements (no
    seed-consuming generation pass, no memory streams): their bytes are
    the same on every machine, so the shared key lets warm disk caches
    serve all seeds.

    This is {!key_structural} — an O(1)-per-program fold of the
    precomputed {!Mp_codegen.Ir.struct_hash} fields — timed into
    {!key_seconds}. *)

val key_structural :
  ?uarch:string ->
  ?seed:int ->
  config:Mp_uarch.Uarch_def.config ->
  warmup:int ->
  measure:int ->
  name:string ->
  Mp_codegen.Ir.t array ->
  string
(** The fast derivation: FNV/splitmix fold over the job parameters and
    each program's precomputed structural hash. 16 hex characters. *)

val key_marshal :
  ?uarch:string ->
  ?seed:int ->
  config:Mp_uarch.Uarch_def.config ->
  warmup:int ->
  measure:int ->
  name:string ->
  Mp_codegen.Ir.t array ->
  string
(** The reference derivation: serialise every program field into a
    buffer and MD5 it. 32 hex characters. It induces the same hit/miss
    equivalence classes as {!key_structural}; exposed as the oracle the
    equivalence tests check that against. *)

val key_seconds : unit -> float
(** Cumulative wall-clock seconds this process has spent inside {!key}
    (either derivation), for the bench harness's
    [key_digest_seconds] metric. *)

val find : t -> string -> Measurement.t option
(** Memory first, then disk (promoting a disk entry into memory).
    Counts a hit or a miss. *)

val add : t -> string -> Measurement.t -> unit
(** First writer wins (concurrent writers compute identical values);
    persisted when the cache has a disk. *)

val find_or_add : t -> string -> (unit -> Measurement.t) -> Measurement.t
(** [find_or_add t k compute] returns the cached measurement for [k],
    or runs [compute] (outside the lock) and memoizes its result.

    {e Single-flight}: concurrent calls for the same key run [compute]
    at most once — the first claimant computes while the others block
    until the value is published, then return it (counted as hits, so
    [misses] equals computations executed). If the computing domain's
    [compute] raises, the exception propagates to it alone and one
    blocked caller takes over the computation. [compute] must not
    re-enter [find_or_add] with the same key (it would deadlock);
    simulation jobs never do. *)
