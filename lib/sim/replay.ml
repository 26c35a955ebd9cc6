(* Steady-state replay: pay a program's warmup-to-steady-state
   simulation once, then answer later measurements of the same
   structural program with a closed-form counter step.

   The period detector in Core_sim proves — by full-state fingerprint
   equality, not a digest — that the machine state repeats at an
   iteration boundary. A run that detected a period therefore factors,
   exactly, as head + k * period + tail, where the per-period counter
   delta is an integer vector. Store the run's final activity plus
   that delta, and the activity of any other admissible window is
   activity + k * delta, bit-for-bit (see the validity analysis on
   [find]). Runs that never detect a period still store their final
   activity, which replays exactly at the recorded window.

   Records are keyed on everything the activity depends on:

   - the uarch fingerprint (geometry, latencies, occupancies — and the
     base memory latency, so a bandwidth-inflated re-run keys apart
     via the explicit [mem_latency] component),
   - the SMT mode and the warmup length,
   - each per-thread program's name-free [Ir.body_hash] (opcodes,
     operands, immediates, branch patterns, register initialisation,
     memory distribution),
   - for programs that consume per-run randomness (memory address
     streams), a salt folding the RNG inputs (effective seed, run
     name, cores, smt) — pure compute programs omit it, so GA
     re-evaluations and renamed duplicates share records across names,
     seeds and core counts.

   The measured window is NOT part of the key: one record serves every
   admissible window through the period step.

   Per-opcode counters are stored as the run produced them: dense
   arrays and ascending pair lists over the run-local ids of the
   snapshot's [ops] (the run's mnemonics, sorted). Every run of a key
   has the same programs, hence the same [ops], so a base and the
   period delta index the same opcodes and add up elementwise. *)

open Mp_codegen

(* ----- stored data (pure, marshal-safe) ---------------------------------- *)

type snapshot = {
  s_measure : int;
  s_cycles : int;
  s_counters : int array array; (* per thread: raw_counters in order *)
  s_ops : string array;
  s_op_issues : int array;
  s_level_loads : int array;
  s_switch : int;
  s_transitions : (int * int * int) list;
  s_prefetches : int;
}

type record = { bases : snapshot list; period : Core_sim.period_delta option }

(* Bound the per-key base list: distinct windows of one program are
   few in practice (default and bootstrap's 2x default), and any base
   extrapolates to every admissible window once a period is known. *)
let max_bases = 8

(* ----- the table --------------------------------------------------------- *)

type t = {
  table : (string, record) Hashtbl.t;
  lock : Mutex.t;
  log : Mp_util.Disk_log.t option;
}

let schema_version = 2

let hits_ctr = Atomic.make 0
let misses_ctr = Atomic.make 0

let hits () = Atomic.get hits_ctr
let misses () = Atomic.get misses_ctr

let enabled () =
  match Sys.getenv_opt "MP_REPLAY" with
  | Some v ->
    not
      (List.mem
         (String.lowercase_ascii (String.trim v))
         [ "off"; "0"; "false"; "no" ])
  | None -> true

(* Same gate and directory as the measurement cache ([MP_CACHE],
   [MP_CACHE_DIR]), one level down — replay records are segment frames
   under the same namespace as measurement entries, so the cache's
   housekeeping prunes and GCs them too. *)
let env_disk_dir () =
  match Measurement_cache.env_disk () with
  | None -> None
  | Some d -> Some (Filename.concat d.Measurement_cache.dir "replay")

let create ?disk_dir () =
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    log =
      Option.map
        (fun dir ->
          Mp_util.Disk_log.shared ~dir
            ~namespace:(Measurement_cache.namespace ()))
        disk_dir;
  }

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let global_table = ref None
let global_lock = Mutex.create ()

let global () =
  Mutex.lock global_lock;
  let r =
    match !global_table with
    | Some r -> r
    | None ->
      let r = create ?disk_dir:(env_disk_dir ()) () in
      global_table := Some r;
      r
  in
  Mutex.unlock global_lock;
  r

(* ----- keys -------------------------------------------------------------- *)

let key ~uarch ~smt ~warmup ~mem_latency ?salt (per_thread : Ir.t array) =
  let open Mp_util.Fnv in
  let h = string seed uarch in
  let h = int h smt in
  let h = int h warmup in
  let h = int h mem_latency in
  let h =
    match salt with None -> byte h 0 | Some s -> string (byte h 1) s
  in
  let h = int h (Array.length per_thread) in
  let h =
    Array.fold_left (fun h (p : Ir.t) -> int64 h p.Ir.body_hash) h per_thread
  in
  to_hex (finish h)

(* ----- activity <-> record conversion ------------------------------------ *)

let counters_to_ints (c : Measurement.counters) =
  let open Measurement in
  Array.map int_of_float
    [| c.instrs; c.dispatched; c.fxu; c.lsu; c.vsu; c.bru; c.st;
       c.l1; c.l2; c.l3; c.mem |]

let snapshot_of_activity ~measure (a : Core_sim.activity) =
  {
    s_measure = measure;
    s_cycles = a.Core_sim.measured_cycles;
    s_counters = Array.map counters_to_ints a.Core_sim.threads;
    s_ops = a.Core_sim.ops;
    s_op_issues = a.Core_sim.op_issues;
    s_level_loads = a.Core_sim.level_loads;
    s_switch = a.Core_sim.switch_events;
    s_transitions = a.Core_sim.transitions;
    s_prefetches = a.Core_sim.prefetches;
  }

(* [base + k * period], elementwise. [k] may be negative (extrapolating
   down to a shorter window); every resulting counter equals the
   corresponding dense run's and is therefore >= 0. *)
let reify ~daf (b : snapshot) k (p : Core_sim.period_delta option) =
  let step base f = match p with None -> base | Some p -> base + (k * f p) in
  let cycles = step b.s_cycles (fun p -> p.Core_sim.pd_cycles) in
  let cyc_f = float_of_int cycles in
  let threads =
    Array.mapi
      (fun t bc ->
        let v i =
          float_of_int (step bc.(i) (fun p -> p.Core_sim.pd_counters.(t).(i)))
        in
        {
          Measurement.cycles = cyc_f;
          instrs = v 0;
          dispatched = v 1;
          fxu = v 2;
          lsu = v 3;
          vsu = v 4;
          bru = v 5;
          st = v 6;
          l1 = v 7;
          l2 = v 8;
          l3 = v 9;
          mem = v 10;
        })
      b.s_counters
  in
  (* transitions through a dense pair matrix, as Core_sim counts them:
     zeros drop out and the list comes back ascending *)
  let n = Array.length b.s_ops in
  let pairs = Array.make (n * n) 0 in
  let add scale =
    List.iter (fun (x, y, c) ->
        pairs.((x * n) + y) <- pairs.((x * n) + y) + (scale * c))
  in
  add 1 b.s_transitions;
  Option.iter (fun p -> add k p.Core_sim.pd_transitions) p;
  let transitions = ref [] in
  for key = (n * n) - 1 downto 0 do
    if pairs.(key) <> 0 then
      transitions := (key / n, key mod n, pairs.(key)) :: !transitions
  done;
  {
    Core_sim.measured_cycles = cycles;
    threads;
    ops = b.s_ops;
    op_issues =
      Array.mapi
        (fun i c -> step c (fun p -> p.Core_sim.pd_op_issues.(i)))
        b.s_op_issues;
    level_loads =
      Array.mapi
        (fun i c -> step c (fun p -> p.Core_sim.pd_level_loads.(i)))
        b.s_level_loads;
    switch_events = step b.s_switch (fun p -> p.Core_sim.pd_switch);
    transitions = !transitions;
    daf;
    prefetches = step b.s_prefetches (fun p -> p.Core_sim.pd_prefetches);
  }

(* ----- lookup and recording ---------------------------------------------- *)

let lookup t key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.lock;
  match (r, t.log) with
  | (Some _ as r), _ | r, None -> r
  | None, Some log ->
    (match Mp_util.Disk_log.find log ~schema:schema_version key with
     | None -> None
     | Some r ->
       Mutex.lock t.lock;
       (* merge with any record another domain promoted meanwhile *)
       let merged =
         match Hashtbl.find_opt t.table key with
         | None -> r
         | Some cur ->
           {
             bases =
               List.fold_left
                 (fun acc b ->
                   if
                     List.exists
                       (fun (x : snapshot) -> x.s_measure = b.s_measure)
                       acc
                   then acc
                   else acc @ [ b ])
                 cur.bases r.bases;
             period =
               (match cur.period with Some _ -> cur.period | None -> r.period);
           }
       in
       Hashtbl.replace t.table key merged;
       Mutex.unlock t.lock;
       Some merged)

(* A window [measure] is admissible from base [b] with period [p] when
   the step count k = (measure - b.s_measure) / pd_period_iters is
   integral and both totals stay at or above [pd_min_total]:

   - The simulated trajectory up to the fingerprint match is a prefix
     of every run with total >= pd_min_total (below it the run ends
     before reaching the matched state, so its counters are not of the
     head + k*period + tail form).
   - With every thread advancing pd_period_iters iterations per
     period, a run whose total is s*pd_period_iters larger credits
     exactly s more periods and then simulates a bit-identical tail:
     the skip threshold total - n*pd_period_iters is unchanged.
     Core_sim's period skipping is asserted bit-identical to dense
     simulation, so
     dense(measure) = dense(b.s_measure) + k * delta, in both
     directions.

   Any admissible base yields the same activity (each equals the dense
   run's), so the first one wins. *)
let find_base (r : record) ~warmup ~measure =
  match List.find_opt (fun b -> b.s_measure = measure) r.bases with
  | Some b -> Some (b, 0)
  | None ->
    (match r.period with
     | Some p when p.Core_sim.pd_period_iters > 0 ->
       List.find_map
         (fun b ->
           let diff = measure - b.s_measure in
           if
             diff mod p.Core_sim.pd_period_iters = 0
             && warmup + measure >= p.Core_sim.pd_min_total
             && warmup + b.s_measure >= p.Core_sim.pd_min_total
           then Some (b, diff / p.Core_sim.pd_period_iters)
           else None)
         r.bases
     | _ -> None)

let find t ~daf ~warmup ~measure key =
  match lookup t key with
  | None ->
    Atomic.incr misses_ctr;
    None
  | Some r ->
    (match find_base r ~warmup ~measure with
     | None ->
       Atomic.incr misses_ctr;
       None
     | Some (b, k) ->
       Atomic.incr hits_ctr;
       Some (reify ~daf b k r.period))

let record t ~measure key (activity : Core_sim.activity)
    (pd : Core_sim.period_delta option) =
  let b = snapshot_of_activity ~measure activity in
  Mutex.lock t.lock;
  let cur =
    Option.value ~default:{ bases = []; period = None }
      (Hashtbl.find_opt t.table key)
  in
  let bases =
    if List.exists (fun (x : snapshot) -> x.s_measure = measure) cur.bases
    then cur.bases
    else
      let bs = b :: cur.bases in
      if List.length bs > max_bases then
        List.filteri (fun i _ -> i < max_bases) bs
      else bs
  in
  let period = match cur.period with Some _ -> cur.period | None -> pd in
  let merged = { bases; period } in
  let changed = merged <> cur in
  if changed then Hashtbl.replace t.table key merged;
  Mutex.unlock t.lock;
  if changed then
    Option.iter
      (fun log -> Mp_util.Disk_log.append log ~schema:schema_version key merged)
      t.log
