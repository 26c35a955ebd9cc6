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

   Counters are stored by opcode NAME, not intern id: ids reflect one
   machine's interning history, names are canonical. Power_sim sums
   energies in name order for exactly this reason, so reifying a
   record against any machine's opmap reproduces the measurement
   bit-for-bit. *)

open Mp_codegen

(* ----- stored data (pure, marshal-safe) ---------------------------------- *)

type snapshot = {
  s_measure : int;
  s_cycles : int;
  s_counters : int array array; (* per thread: raw_counters in order *)
  s_op_issues : (string * int) list;
  s_level_loads : int array;
  s_switch : int;
  s_transitions : (string * string * int) list;
  s_prefetches : int;
}

type period = {
  p_iters : int;
  p_cycles : int;
  p_min_total : int;
  p_counters : int array array;
  p_op_issues : (string * int) list;
  p_level_loads : int array;
  p_switch : int;
  p_transitions : (string * string * int) list;
  p_prefetches : int;
}

type record = { bases : snapshot list; period : period option }

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

let schema_version = 1

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

let op_issues_by_name ~opmap op_issues =
  let acc = ref [] in
  for id = Array.length op_issues - 1 downto 0 do
    if op_issues.(id) <> 0 then
      acc := (Core_sim.opmap_name opmap id, op_issues.(id)) :: !acc
  done;
  !acc

let transitions_by_name ~opmap trans =
  List.map
    (fun (a, b, c) ->
      (Core_sim.opmap_name opmap a, Core_sim.opmap_name opmap b, c))
    trans

let snapshot_of_activity ~opmap ~measure (a : Core_sim.activity) =
  {
    s_measure = measure;
    s_cycles = a.Core_sim.measured_cycles;
    s_counters = Array.map counters_to_ints a.Core_sim.threads;
    s_op_issues = op_issues_by_name ~opmap a.Core_sim.op_issues;
    s_level_loads = Array.copy a.Core_sim.level_loads;
    s_switch = a.Core_sim.switch_events;
    s_transitions = transitions_by_name ~opmap a.Core_sim.transitions;
    s_prefetches = a.Core_sim.prefetches;
  }

let period_of_delta ~opmap (pd : Core_sim.period_delta) =
  {
    p_iters = pd.Core_sim.pd_period_iters;
    p_cycles = pd.Core_sim.pd_cycles;
    p_min_total = pd.Core_sim.pd_min_total;
    p_counters = pd.Core_sim.pd_counters;
    p_op_issues =
      List.map
        (fun (id, d) -> (Core_sim.opmap_name opmap id, d))
        pd.Core_sim.pd_op_issues;
    p_level_loads = pd.Core_sim.pd_level_loads;
    p_switch = pd.Core_sim.pd_switch;
    p_transitions = transitions_by_name ~opmap pd.Core_sim.pd_transitions;
    p_prefetches = pd.Core_sim.pd_prefetches;
  }

(* [base + k * period], reified against [opmap]. [k] may be negative
   (extrapolating down to a shorter window); every resulting counter
   equals the corresponding dense run's and is therefore >= 0. *)
let reify ~opmap ~daf (b : snapshot) k (p : period option) =
  let step fs fp = match p with None -> fs | Some p -> fs + (k * fp p) in
  let cycles =
    step b.s_cycles (fun p -> p.p_cycles)
  in
  let cyc_f = float_of_int cycles in
  let threads =
    Array.mapi
      (fun t bc ->
        let v i =
          float_of_int
            (match p with
             | None -> bc.(i)
             | Some p -> bc.(i) + (k * p.p_counters.(t).(i)))
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
  (* merge name-keyed counts: base + k * period, dropping zeros so the
     reified activity matches what a dense run reports (dense lists
     only live entries) *)
  let merge base step_list =
    let tbl = Hashtbl.create 32 in
    List.iter (fun (n, c) -> Hashtbl.replace tbl n c) base;
    (match p with
     | None -> ()
     | Some _ ->
       List.iter
         (fun (n, d) ->
           let cur = Option.value ~default:0 (Hashtbl.find_opt tbl n) in
           Hashtbl.replace tbl n (cur + (k * d)))
         step_list);
    tbl
  in
  let op_tbl =
    merge b.s_op_issues (match p with Some p -> p.p_op_issues | None -> [])
  in
  let max_id = ref 0 in
  let op_ids =
    Hashtbl.fold
      (fun name count acc ->
        let id = Core_sim.intern opmap name in
        if id > !max_id then max_id := id;
        (id, count) :: acc)
      op_tbl []
  in
  let op_issues = Array.make (!max_id + 1) 0 in
  List.iter (fun (id, c) -> op_issues.(id) <- c) op_ids;
  let trans_tbl = Hashtbl.create 32 in
  let add_trans scale l =
    List.iter
      (fun (a, b, c) ->
        let k' = (a, b) in
        let cur = Option.value ~default:0 (Hashtbl.find_opt trans_tbl k') in
        Hashtbl.replace trans_tbl k' (cur + (scale * c)))
      l
  in
  add_trans 1 b.s_transitions;
  (match p with None -> () | Some p -> add_trans k p.p_transitions);
  let transitions =
    Hashtbl.fold
      (fun (a, b) c acc ->
        if c <> 0 then (Core_sim.intern opmap a, Core_sim.intern opmap b, c) :: acc
        else acc)
      trans_tbl []
    |> List.sort compare
  in
  let level_loads =
    Array.init 4 (fun i ->
        step b.s_level_loads.(i) (fun p -> p.p_level_loads.(i)))
  in
  {
    Core_sim.measured_cycles = cycles;
    threads;
    op_issues;
    level_loads;
    switch_events = step b.s_switch (fun p -> p.p_switch);
    transitions;
    daf;
    prefetches = step b.s_prefetches (fun p -> p.p_prefetches);
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
   the step count k = (measure - b.s_measure) / p_iters is integral
   and both totals stay at or above [p_min_total]:

   - The simulated trajectory up to the fingerprint match is a prefix
     of every run with total >= p_min_total (below it the run ends
     before reaching the matched state, so its counters are not of the
     head + k*period + tail form).
   - With every thread advancing p_iters iterations per period, a run
     whose total is s*p_iters larger credits exactly s more periods
     and then simulates a bit-identical tail: the skip threshold
     total - n*p_iters is unchanged. Core_sim's period skipping is
     asserted bit-identical to dense simulation, so
     dense(measure) = dense(b.s_measure) + k * delta, in both
     directions.

   Any admissible base yields the same activity (each equals the dense
   run's), so the first one wins. *)
let find_base (r : record) ~warmup ~measure =
  match List.find_opt (fun b -> b.s_measure = measure) r.bases with
  | Some b -> Some (b, 0)
  | None ->
    (match r.period with
     | Some p when p.p_iters > 0 ->
       List.find_map
         (fun b ->
           let diff = measure - b.s_measure in
           if
             diff mod p.p_iters = 0
             && warmup + measure >= p.p_min_total
             && warmup + b.s_measure >= p.p_min_total
           then Some (b, diff / p.p_iters)
           else None)
         r.bases
     | _ -> None)

let find t ~opmap ~daf ~warmup ~measure key =
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
       Some (reify ~opmap ~daf b k r.period))

let record t ~opmap ~measure key (activity : Core_sim.activity)
    (pd : Core_sim.period_delta option) =
  let b = snapshot_of_activity ~opmap ~measure activity in
  let p = Option.map (period_of_delta ~opmap) pd in
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
  let period = match cur.period with Some _ -> cur.period | None -> p in
  let merged = { bases; period } in
  let changed = merged <> cur in
  if changed then Hashtbl.replace t.table key merged;
  Mutex.unlock t.lock;
  if changed then
    Option.iter
      (fun log -> Mp_util.Disk_log.append log ~schema:schema_version key merged)
      t.log
