(* The benchmark's four workloads, all on POWER7 through the library's
   public API: the paper's three queries — (a) power projection with a
   per-component model, (b) energy per instruction, (c) worst-case
   power via stressmarks — and a warm rerun of (a). NOTES.md records
   why each was chosen and which layers it loads or bypasses.

   Each workload is [setup] (untimed), [run] (the timed phase, wrapped
   in spans around every call into a layer) and [check] (the paper's
   findings on the outputs). [run] also returns a small sample of its
   results that the runner re-derives by dense in-process simulation. *)

open Microprobe

type workload = Power_model | Epi_bootstrap | Stressmark_search | Warm_rerun

let workloads =
  [ ("power_model", Power_model);
    ("epi_bootstrap", Epi_bootstrap);
    ("stressmark_search", Stressmark_search);
    ("warm_rerun", Warm_rerun) ]

(* The MP_* knobs each workload runs under, on top of a private
   MP_CACHE_DIR (the replay store lives under it). Everything else is
   scrubbed. The stressmark workload shards over one local subprocess
   and one loopback TCP peer, one domain each; MP_HOSTS is added once
   the peer is listening. *)
let knobs = function
  | Stressmark_search -> [ ("MP_PROCS", "1"); ("MP_POOL_SIZE", "1") ]
  | Power_model | Epi_bootstrap | Warm_rerun -> []

(* ----- scale ------------------------------------------------------------ *)

(* Sizes chosen so one cold repetition takes a few seconds on a 2-core
   host: the runner repeats each workload inside the run's time budget
   and reports medians. *)

let spec_benchmarks =
  [ "gcc"; "mcf"; "hmmer"; "libquantum"; "milc"; "namd"; "lbm"; "povray" ]

let epi_size = 256

let stress_size = 256

let stress_stride = 24 (* every 24th of the 729 six-instruction sequences *)

let ga_population = 10

let ga_generations = 4

(* ----- outputs and samples ---------------------------------------------- *)

type outputs =
  | Model of {
      model : Power_model.Bottom_up.t;
      spec : Measurement.t list;
      paae_by_config : (Uarch_def.config * float) list;
      paae : float;
    }
  | Props of (Uarch_def.config * Epi.Bootstrap.props list) list
  | Stress of { sets : Stressmark.set_summary list; ga : Stressmark.ga_summary }

(* Results the runner recomputes with a dense in-process reference. *)
type sample =
  | Jobs of (Uarch_def.config * Ir.t * Measurement.t) list
  | Instr_props of int * (Uarch_def.config * Epi.Bootstrap.props) list
      (** loop size, (configuration, bootstrapped properties) *)
  | Evals of int * (string * string list list * Stressmark.evaluation list) list
      (** loop size, (set name, leading sequences of the set, their
          evaluations) *)

(* ----- context ---------------------------------------------------------- *)

type ctx = {
  workload : workload;
  seed : int;
  arch : Arch.t;
  machine : Machine.t;
  peer : int option;  (** pid of the loopback TCP worker *)
}

let config arch ~cores ~smt = Uarch_def.config ~cores ~smt arch.Arch.uarch

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let setup workload ~seed =
  let arch = get_architecture "POWER7" in
  let machine = Machine.create ~seed arch.Arch.uarch in
  ignore (Mp_util.Parallel.global ());
  let peer =
    match workload with
    | Stressmark_search ->
      (* bring the whole shard pool up before timing: the local
         subprocess, the TCP peer and its connection *)
      let port = free_port () in
      let pid =
        Shard_exec.spawn_worker ~env:[ ("MP_POOL_SIZE", "1") ] ~port ()
      in
      Unix.putenv "MP_HOSTS" (Printf.sprintf "127.0.0.1:%d" port);
      let pool =
        Option.get
          (Shard_exec.get_pool ~hosts:(Shard_exec.env_hosts ())
             (Shard_exec.env_procs ()))
      in
      Option.iter
        (fun np -> ignore (Mp_util.Netpool.connect np 0))
        (Shard_exec.netpool pool);
      Some pid
    | Power_model | Epi_bootstrap | Warm_rerun -> None
  in
  { workload; seed; arch; machine; peer }

let teardown ctx =
  Shard_exec.shutdown_global ();
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    ctx.peer;
  Mp_util.Parallel.shutdown_global ()

(* ----- (a) power model -------------------------------------------------- *)

let every n l = List.filteri (fun i _ -> i mod n = 0) l

(* Measurement jobs the workload submits to [Machine]: each [Machine.run]
   call and each position of a [run_batch] or [run_phases] list. They are
   counted at the benchmark's call sites, except where a library
   function hides its calls (see [machine_requests]). *)
let jobs = ref 0

let count_jobs n = jobs := !jobs + n

(* Jobs an in-process cached machine has been handed so far: every
   [Machine.run] looks its key up in the measurement cache exactly once
   (a hit or a miss), and [run_batch] collapses in-batch duplicates
   before that lookup. Not valid under sharding, where the coordinator's
   cache is not consulted before dispatch. *)
let machine_requests ctx =
  match Machine.measurement_cache ctx.machine with
  | Some c ->
    let s = Measurement_cache.stats c in
    s.Measurement_cache.hits + s.Measurement_cache.misses
    + Machine.batch_dup_collapsed ()
  | None -> invalid_arg "Queries.machine_requests: uncached machine"

let batch ctx jobs =
  count_jobs (List.length jobs);
  Spans.span "machine.batch" (fun () -> Machine.run_batch ctx.machine jobs)

(* A reduced Table-2 suite built with the same generators
   [Workloads.Training.table2] uses: GA-targeted IPC families, memory
   families bound to hierarchy mixes by the analytical cache model, and
   the random family. It is the benchmark's own composition, not a call
   to [Training.table2] (whose quick scale takes ~20 s cold), so a change
   to table2's family list does not show here. *)
let training_suite ctx =
  let machine = ctx.machine and arch = ctx.arch in
  let open Workloads.Training in
  let select = Arch.select arch in
  let simple_ints =
    select (fun i -> i.Instruction.exec_class = Instruction.Simple_int)
  in
  let vsu_ops =
    select (fun i ->
        (not (Instruction.is_memory i))
        && Uarch_def.stresses arch.Arch.uarch i Pipe.VSU)
  in
  let ipc name units candidates targets =
    ipc_family ~machine ~arch ~name ~units ~description:name ~candidates
      ~targets ~population:6 ~generations:3 ()
  in
  let mem name distribution =
    memory_family ~machine ~arch ~name ~description:name ~loads_only:false
      ~distribution ~count:2 ()
  in
  let open Cache_geometry in
  [ ipc "Simple Integer" "FXU or LSU" simple_ints [ 0.5; 1.5; 2.5; 3.5 ];
    ipc "Float/Vector" "VSU" vsu_ops [ 0.3; 0.8; 1.3 ];
    mem "L1" [ (L1, 1.0) ];
    mem "L1L2b" [ (L1, 0.5); (L2, 0.5) ];
    mem "L2L3b" [ (L2, 0.5); (L3, 0.5) ];
    mem "Memory" [ (MEM, 1.0) ];
    random_family ~machine ~arch ~count:12 () ]

let power_model ctx =
  let arch = ctx.arch in
  let cfg = config arch in
  (* the generators measure every GA genome and every finished program
     with serial [Machine.run] calls the benchmark cannot see *)
  let r0 = machine_requests ctx in
  let fams =
    Spans.span "workloads.training_suite" (fun () -> training_suite ctx)
  in
  count_jobs (machine_requests ctx - r0);
  let programs f =
    List.map
      (fun (e : Workloads.Training.entry) -> e.Workloads.Training.program)
      f.Workloads.Training.entries
  in
  let all = List.concat_map programs fams in
  let random =
    List.concat_map programs
      (List.filter
         (fun f -> f.Workloads.Training.family_name = "Random")
         fams)
  in
  let grid configs ps =
    List.concat_map (fun c -> List.map (fun p -> (c, p)) ps) configs
  in
  let smt1_jobs = grid [ cfg ~cores:1 ~smt:1 ] all in
  let smt_on_jobs = grid [ cfg ~cores:1 ~smt:2; cfg ~cores:1 ~smt:4 ] (every 2 all) in
  let multi_jobs =
    grid
      (List.filter
         (fun (c : Uarch_def.config) ->
           List.mem c.Uarch_def.cores [ 1; 2; 4; 8 ])
         (Uarch_def.all_configs arch.Arch.uarch))
      (every 2 random)
  in
  let smt1 = batch ctx smt1_jobs in
  let smt_on = batch ctx smt_on_jobs in
  let multi = batch ctx multi_jobs in
  let model =
    Spans.span "model.train" (fun () ->
        Power_model.Bottom_up.train
          ~baseline:(Machine.baseline_reading ctx.machine)
          ~smt1 ~smt_on ~multi ())
  in
  let spec =
    Spans.span "workloads.spec" (fun () ->
        let suite =
          List.map (Workloads.Spec.benchmark ~arch ~size:512) spec_benchmarks
        in
        List.concat_map
          (fun c ->
            List.map
              (fun (b : Workloads.Spec.benchmark) ->
                count_jobs (List.length b.Workloads.Spec.phases);
                Workloads.Spec.run ~machine:ctx.machine ~config:c b)
              suite)
          [ cfg ~cores:1 ~smt:1; cfg ~cores:4 ~smt:2; cfg ~cores:8 ~smt:4 ])
  in
  let predict = Power_model.Bottom_up.predict model in
  let outputs =
    Model
      {
        model;
        spec;
        paae_by_config = Power_model.Validation.by_config ~predict spec;
        paae = Power_model.Validation.paae ~predict spec;
      }
  in
  (* a fixed sample across the three measurement steps *)
  let pick jobs ms n =
    every (max 1 (List.length jobs / n))
      (List.map2 (fun (c, p) m -> (c, p, m)) jobs ms)
  in
  let sample =
    pick smt1_jobs smt1 2 @ pick smt_on_jobs smt_on 2 @ pick multi_jobs multi 3
  in
  (outputs, Jobs sample)

(* ----- (b) EPI bootstrap ------------------------------------------------ *)

let epi_sample_mnemonics = [ "mulldo"; "lxvw4x"; "xvnmsubmdp"; "stfsux" ]

let epi_bootstrap ctx =
  let arch = ctx.arch in
  let boot c =
    let props =
      Epi.Bootstrap.run ~machine:ctx.machine ~arch ~config:c ~size:epi_size ()
    in
    count_jobs (2 * List.length props);
    (c, props)
  in
  let first =
    Spans.span "epi.bootstrap_first" (fun () ->
        boot (config arch ~cores:8 ~smt:1))
  in
  let repeat =
    Spans.span "epi.bootstrap_repeat" (fun () ->
        List.map boot
          [ config arch ~cores:1 ~smt:1; config arch ~cores:4 ~smt:1 ])
  in
  let runs = first :: repeat in
  let sample =
    List.concat_map
      (fun (c, props) ->
        List.filter_map
          (fun m ->
            List.find_opt
              (fun (p : Epi.Bootstrap.props) -> p.Epi.Bootstrap.mnemonic = m)
              props
            |> Option.map (fun p -> (c, p)))
          epi_sample_mnemonics)
      runs
  in
  (Props runs, Instr_props (epi_size, sample))

(* ----- (c) stressmarks -------------------------------------------------- *)

let by_sequence evals =
  List.sort
    (fun (a : Stressmark.evaluation) b ->
      compare (a.Stressmark.sequence, a.Stressmark.smt)
        (b.Stressmark.sequence, b.Stressmark.smt))
    evals

let paper_picks = [ "mulldo"; "lxvw4x"; "xvnmsubmdp" ]

let sample_sequences = 2

let stressmark_search ctx =
  let arch = ctx.arch and machine = ctx.machine in
  let space instrs =
    every stress_stride (Stressmark.exhaustive_sequences instrs ~length:6)
  in
  let picks = List.map (Arch.find_instruction arch) paper_picks in
  let sets =
    List.map
      (fun (name, instrs) ->
        let seqs = space instrs in
        count_jobs (3 * List.length seqs);
        ( seqs,
          Spans.span "stressmark.sets" (fun () ->
              Stressmark.evaluate_set ~machine ~arch ~name ~size:stress_size
                seqs) ))
      [ ("Expert DSE", Stressmark.expert_instructions arch);
        ("MicroProbe", picks) ]
  in
  let collapsed0 = Dse.Driver.dup_collapsed () in
  let ga =
    Spans.span "stressmark.ga" (fun () ->
        Stressmark.ga_search ~machine ~arch ~size:stress_size ~seed:ctx.seed
          ~population:ga_population ~generations:ga_generations
          ~candidates:picks ~length:6 ())
  in
  (* genomes the GA's point key collapsed never reach the machine; the
     best genome is measured once more at the end *)
  count_jobs
    (ga.Stressmark.ga_evaluations - (Dse.Driver.dup_collapsed () - collapsed0) + 1);
  let mnemonics seq =
    List.map (fun (i : Instruction.t) -> i.Instruction.mnemonic) seq
  in
  let sample =
    List.map
      (fun (seqs, (s : Stressmark.set_summary)) ->
        let lead =
          List.map mnemonics (List.filteri (fun i _ -> i < sample_sequences) seqs)
        in
        ( s.Stressmark.set_name,
          lead,
          by_sequence
            (List.filter
               (fun (e : Stressmark.evaluation) ->
                 List.mem e.Stressmark.sequence lead)
               s.Stressmark.evaluations) ))
      sets
  in
  (Stress { sets = List.map snd sets; ga }, Evals (stress_size, sample))

let run ctx =
  match ctx.workload with
  | Power_model | Warm_rerun -> power_model ctx
  | Epi_bootstrap -> epi_bootstrap ctx
  | Stressmark_search -> stressmark_search ctx

(* ----- the paper's findings --------------------------------------------- *)

(* Table 3's per-category IPC×EPI winners (EXPERIMENTS.md) *)
let table3_winners =
  [ ("FXU", "mulldo"); ("LSU", "lxvw4x"); ("VSU", "xvnmsubmdp");
    ("FXU or LSU", "add"); ("LSU and FXU", "ldux"); ("LSU and 2FXU", "lhaux");
    ("LSU and VSU", "stxvw4x"); ("LSU and VSU and FXU", "stfsux") ]

(* Bottom-up PAAE on the SPEC surrogates, within the shape EXPERIMENTS.md
   records for reduced campaigns: a low-percent average, and error
   growing with core count (1c-smt1 below 8c-smt4). *)
let max_avg_paae = 4.0

let check ctx outputs =
  let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt in
  match outputs with
  | Model { paae; paae_by_config; _ } ->
    let at cores smt =
      List.assoc (config ctx.arch ~cores ~smt) paae_by_config
    in
    (if paae <= max_avg_paae then []
     else fail "bottom-up PAAE %.2f%% above %.1f%%" paae max_avg_paae)
    @
    if at 1 1 < at 8 4 then []
    else
      fail "PAAE does not grow with core count (1c-smt1 %.2f%%, 8c-smt4 %.2f%%)"
        (at 1 1) (at 8 4)
  | Props ((_, first) :: _) ->
    let rows =
      Epi.Taxonomy.table3 (Epi.Taxonomy.categorize ~isa:ctx.arch.Arch.isa first)
    in
    List.concat_map
      (fun (cat, want) ->
        match
          List.find_opt (fun (r : Epi.Taxonomy.row) -> r.Epi.Taxonomy.category = cat) rows
        with
        | Some r when r.Epi.Taxonomy.mnemonic = want -> []
        | Some r -> fail "Table 3 %s winner %s, expected %s" cat r.Epi.Taxonomy.mnemonic want
        | None -> fail "Table 3 category %s missing" cat)
      table3_winners
  | Props [] -> fail "no bootstrap output"
  | Stress { sets; _ } ->
    let max_of name =
      (List.find (fun (s : Stressmark.set_summary) -> s.Stressmark.set_name = name) sets)
        .Stressmark.max_power
    in
    let mp = max_of "MicroProbe" and dse = max_of "Expert DSE" in
    if mp >= dse then []
    else fail "MicroProbe max %.3f below Expert-DSE max %.3f" mp dse

(* ----- dense reference -------------------------------------------------- *)

let canonical v = Marshal.to_string v [ Marshal.No_sharing ]

let same a b = canonical a = canonical b

(* The sample recomputed on a fresh machine with no cache and no
   replay. The caller runs with MP_PERIOD=off, so the library calls
   that take no [period] argument simulate densely too. A run passes
   when its sample is bit-identical to this. *)
let reference ~seed sample =
  let arch = get_architecture "POWER7" in
  let dense = Machine.create ~seed ~cache:false ~replay:false arch.Arch.uarch in
  match sample with
  | Jobs jobs ->
    Jobs (List.map (fun (c, p, _) -> (c, p, Machine.run ~period:false dense c p)) jobs)
  | Instr_props (size, items) ->
    Instr_props
      ( size,
        List.map
          (fun (c, (p : Epi.Bootstrap.props)) ->
            let ins = Arch.find_instruction arch p.Epi.Bootstrap.mnemonic in
            (c, Epi.Bootstrap.instruction_props ~machine:dense ~arch ~config:c ~size ins))
          items )
  | Evals (size, sets) ->
    Evals
      ( size,
        List.map
          (fun (name, lead, _) ->
            let seqs = List.map (List.map (Arch.find_instruction arch)) lead in
            let r = Stressmark.evaluate_set ~machine:dense ~arch ~name ~size seqs in
            (name, lead, by_sequence r.Stressmark.evaluations))
          sets )
