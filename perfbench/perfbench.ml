(* The characterization benchmark's runner.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (Queries.workloads) repeatedly for S seconds of
   timed work and prints, as the last line of stdout, one JSON object
   with the keys correct / attempted / failed / metrics. With --trace 0
   the metrics are the end-to-end ones (medians over repetitions); with
   --trace 1 they are the per-layer ones. The line before it is the run
   record (machine shape, pool sizes, seed, build).

   Every repetition is a fresh process (perfbench.exe --rep ...) with a
   fresh private MP_CACHE_DIR, so a cold workload is really cold: the
   replay table and the measurement cache live in process memory and in
   that directory. warm_rerun instead reuses one directory that a cold
   power_model repetition filled during set-up. Inherited MP_* knobs are
   scrubbed; each workload sets only its own (Queries.knobs). *)

open Microprobe

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ----- one repetition (child process) ----------------------------------- *)

type rep = {
  wall_s : float;
  cpu_s : float;  (** this process and its shard workers *)
  rss_mb : float;  (** peak resident memory, this process plus workers *)
  digest : string;  (** of the outputs, bit-exact *)
  sample : Queries.sample;
  failures : string list;
  layers : (string * float) list;  (** traced repetitions only *)
  pool_size : int;
  shard_slots : int;
}

(* what a repetition process hands back: when its timed phase began
   (absolute time) and, unless it only set up, the repetition *)
type report = { started : float; timed : rep option }

(* process-wide library counters, read before and after the timed phase *)
type counters = {
  key_s : float;
  dup : int;
  recovered : int;
  replay_hits : int;
  replay_misses : int;
  period_hits : int;
  cycles_skipped : int;
  steals : int;
  par_batches : int;
  serial : int;
  proc_frames : int;
  net_frames : int;
  net_bytes : int;
  reconnects : int;
  minor_words : float;
  major : int;
}

let counters () =
  let pool = Mp_util.Parallel.global () in
  let gc = Gc.quick_stat () in
  {
    key_s = Measurement_cache.key_seconds ();
    dup = Machine.batch_dup_collapsed () + Dse.Driver.dup_collapsed ();
    recovered = Machine.jobs_recovered ();
    replay_hits = Replay.hits ();
    replay_misses = Replay.misses ();
    period_hits = Core_sim.period_hits ();
    cycles_skipped = Core_sim.cycles_skipped ();
    steals = Mp_util.Parallel.steal_count pool;
    par_batches = Mp_util.Parallel.parallel_batches pool;
    serial = Mp_util.Parallel.serial_fallbacks pool;
    proc_frames =
      Mp_util.Procpool.frames_sent () + Mp_util.Procpool.frames_received ();
    net_frames =
      Mp_util.Netpool.frames_sent () + Mp_util.Netpool.frames_received ();
    net_bytes = Mp_util.Netpool.bytes_transferred ();
    reconnects = Mp_util.Netpool.reconnect_count ();
    minor_words = gc.Gc.minor_words;
    major = gc.Gc.major_collections;
  }

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Per-layer figures of one traced repetition. Counters are the
   coordinator's: on stressmark_search the simulation runs in the
   shard workers, so its cache, replay and period counters read 0. *)
let layer_metrics (ctx : Queries.ctx) ~(c0 : counters) ~(c1 : counters) ~wall
    ~cpu ~pool_size ~slots =
  let f = float_of_int in
  let d g = f (g c1 - g c0) in
  let cache =
    match Machine.measurement_cache ctx.Queries.machine with
    | Some c -> Measurement_cache.stats c
    | None -> { Measurement_cache.hits = 0; misses = 0; disk_hits = 0 }
  in
  let dir = Sys.getenv "MP_CACHE_DIR" in
  let disk = Measurement_cache.disk_stats dir in
  let replay_disk = Measurement_cache.disk_stats (Filename.concat dir "replay") in
  let slot_stats = List.map snd (Shard_exec.slot_stats ()) in
  let busy =
    List.map
      (fun (s : Shard_exec.slot_stat) ->
        ratio s.Shard_exec.sl_busy_s s.Shard_exec.sl_wall_s)
      slot_stats
  in
  let sum g = f (List.fold_left (fun acc s -> acc + g s) 0 slot_stats) in
  [ ("workloads.training_suite_s", Spans.seconds "workloads.training_suite");
    ("workloads.spec_s", Spans.seconds "workloads.spec");
    ("model.train_s", Spans.seconds "model.train");
    ("epi.bootstrap_first_s", Spans.seconds "epi.bootstrap_first");
    ("epi.bootstrap_repeat_s", Spans.seconds "epi.bootstrap_repeat");
    ("stressmark.sets_s", Spans.seconds "stressmark.sets");
    ("stressmark.ga_s", Spans.seconds "stressmark.ga");
    ("machine.batch_s", Spans.seconds "machine.batch");
    ("machine.jobs", f !Queries.jobs);
    ("machine.dup_collapsed", d (fun c -> c.dup));
    ("machine.jobs_recovered", d (fun c -> c.recovered));
    ("measurement_cache.key_s", c1.key_s -. c0.key_s);
    ("measurement_cache.hits", f cache.Measurement_cache.hits);
    ("measurement_cache.misses", f cache.Measurement_cache.misses);
    ("measurement_cache.disk_hits", f cache.Measurement_cache.disk_hits);
    ("measurement_cache.hit_rate",
     ratio (f cache.Measurement_cache.hits)
       (f (cache.Measurement_cache.hits + cache.Measurement_cache.misses)));
    ("measurement_cache.disk_entries", f disk.Measurement_cache.ds_entries);
    ("measurement_cache.disk_bytes", f disk.Measurement_cache.ds_bytes);
    ("replay.hits", d (fun c -> c.replay_hits));
    ("replay.misses", d (fun c -> c.replay_misses));
    ("replay.hit_rate",
     ratio (d (fun c -> c.replay_hits))
       (d (fun c -> c.replay_hits + c.replay_misses)));
    ("replay.store_bytes", f replay_disk.Measurement_cache.ds_bytes);
    ("core_sim.period_hits", d (fun c -> c.period_hits));
    ("core_sim.cycles_skipped", d (fun c -> c.cycles_skipped));
    ("parallel.steals", d (fun c -> c.steals));
    ("parallel.parallel_batches", d (fun c -> c.par_batches));
    ("parallel.serial_fallbacks", d (fun c -> c.serial));
    (* one domain per shard slot, plus the coordinator's pool *)
    ("parallel.busy_frac", ratio cpu (wall *. f (pool_size + slots)));
    ("shard_exec.slot_busy_frac_min",
     match busy with [] -> 0.0 | b :: rest -> List.fold_left Float.min b rest);
    ("shard_exec.slot_busy_frac_mean",
     ratio (List.fold_left ( +. ) 0.0 busy) (f (List.length busy)));
    ("shard_exec.chunks", sum (fun s -> s.Shard_exec.sl_chunks));
    ("shard_exec.chunks_speculated", sum (fun s -> s.Shard_exec.sl_speculated));
    ("shard_exec.chunks_cancelled", sum (fun s -> s.Shard_exec.sl_cancelled));
    ("procpool.frames", d (fun c -> c.proc_frames));
    ("netpool.frames", d (fun c -> c.net_frames));
    ("netpool.bytes", d (fun c -> c.net_bytes));
    ("transport.bytes_per_frame",
     ratio (d (fun c -> c.net_bytes)) (d (fun c -> c.net_frames)));
    ("netpool.reconnects", d (fun c -> c.reconnects));
    ("gc.minor_words", c1.minor_words -. c0.minor_words);
    ("gc.major_collections", d (fun c -> c.major)) ]

let timed ctx ~trace =
  Shard_exec.reset_slot_stats ();
  let c0 = counters () in
  let cpu0 = Sysinfo.cpu_snapshot () in
  let started = Unix.gettimeofday () in
  let outputs, sample = Queries.run ctx in
  let wall = Unix.gettimeofday () -. started in
  let cpu = Sysinfo.cpu_between cpu0 (Sysinfo.cpu_snapshot ()) in
  let rss = Sysinfo.peak_rss_tree_mb () in
  let c1 = counters () in
  let pool_size = Mp_util.Parallel.size (Mp_util.Parallel.global ()) in
  let slots = Shard_exec.global_size () + Shard_exec.global_remote_size () in
  let health =
    List.filter_map
      (fun (n, what) ->
        if n = 0 then None else Some (Printf.sprintf "%d %s" n what))
      [ (c1.recovered - c0.recovered, "jobs recovered from lost shard workers");
        (c1.reconnects - c0.reconnects, "TCP peer reconnects") ]
  in
  {
    wall_s = wall;
    cpu_s = cpu;
    rss_mb = rss;
    digest = Digest.string (Queries.canonical outputs);
    sample;
    failures = Queries.check ctx outputs @ health;
    layers =
      (if trace then layer_metrics ctx ~c0 ~c1 ~wall ~cpu ~pool_size ~slots
       else []);
    pool_size;
    shard_slots = slots;
  }

let rep ~workload ~seed ~trace ~setup_only ~out =
  ignore (Unix.setsid ());
  Spans.enabled := trace;
  let ctx = Queries.setup workload ~seed in
  let report =
    Fun.protect ~finally:(fun () -> Queries.teardown ctx) @@ fun () ->
    let started = Unix.gettimeofday () in
    { started; timed = (if setup_only then None else Some (timed ctx ~trace)) }
  in
  Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc report [])

(* ----- the runner -------------------------------------------------------- *)

let scrubbed_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"MP_" kv))

(* the repetition process running now, if any *)
let running = ref None

(* Run one repetition in a fresh process: set-up time (from spawn to the
   start of the timed phase) and the report, or [Error] when it did not
   exit cleanly. The child's stdout goes to our stderr, keeping our
   stdout for the result. *)
let spawn ~dir ~name ~seed ~trace ~setup_only ~cache ~knobs k =
  let out = Filename.concat dir (Printf.sprintf "rep-%d.bin" k) in
  let env =
    scrubbed_env ()
    @ List.map (fun (k, v) -> k ^ "=" ^ v) (("MP_CACHE_DIR", cache) :: knobs)
  in
  let flag b = if b then "1" else "0" in
  let argv =
    [| Sys.executable_name; "--rep"; name; "--seed"; string_of_int seed;
       "--trace"; flag trace; "--setup-only"; flag setup_only; "--out"; out |]
  in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process_env Sys.executable_name argv (Array.of_list env)
      Unix.stdin Unix.stderr Unix.stderr
  in
  running := Some pid;
  let status = snd (Unix.waitpid [] pid) in
  running := None;
  (* the repetition leads its own process group: take down any worker
     a crashed repetition left behind *)
  (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
  match status with
  | Unix.WEXITED 0 ->
    let (r : report) = In_channel.with_open_bin out Marshal.from_channel in
    Sys.remove out;
    Ok (r.started -. t0, r.timed)
  | Unix.WEXITED c -> Error (Printf.sprintf "repetition %d exited with %d" k c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Error (Printf.sprintf "repetition %d killed by signal %d" k s)

(* Set-up is short and jittery next to the timed phase, so a run also
   starts this many set-up-only processes (before the timed ones, which
   also warms the page cache) and reports the median over all set-ups. *)
let setup_samples = 12

let min_reps = 3

(* a run stops starting repetitions after this long, so it ends well
   inside the 180 s a run may take *)
let max_run_s = 120.0

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ms_per_job" then "ms"
  else if ends "ns_per_access" then "ns"
  else if ends "_s" then "s"
  else if ends "_pct" then "%"
  else if ends "hit_rate" || ends "busy_frac" || ends "_frac_min" || ends "_frac_mean" then "ratio"
  else if ends "bytes" || ends "bytes_per_frame" then "bytes"
  else if ends "minor_words" || ends "words_per_job" then "words"
  else "count"

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "0"

let runner ~name ~workload ~seed ~seconds ~trace =
  (* the dense reference and the probes run in this process *)
  Unix.putenv "MP_PERIOD" "off";
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat ".perfbench_runs" (string_of_int (Unix.getpid ())))
  in
  Sysinfo.mkdir_p dir;
  (* a run that is stopped early still stops its processes and removes
     its directory *)
  at_exit (fun () ->
      Option.iter
        (fun pid -> try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ())
        !running;
      Sysinfo.rm_rf dir);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  let t_start = Unix.gettimeofday () and steal0 = Sysinfo.steal_s () in
  let knobs = Queries.knobs workload in
  (* A process that crashes is a failed attempt; an output that fails a
     check is a wrong result and makes the run incorrect. Both count in
     [failed]. *)
  let attempted = ref 0 and failed = ref 0 and wrong = ref [] in
  let spawn ~name ~trace ~setup_only ~cache k =
    let r = spawn ~dir ~name ~seed ~trace ~setup_only ~cache ~knobs k in
    incr attempted;
    (match r with
     | Ok _ -> ()
     | Error e ->
       incr failed;
       prerr_endline ("perfbench: failed: " ^ e));
    r
  in
  (* warm_rerun's set-up: one cold power_model repetition fills the
     directory every repetition then reads. A crashed fill counts as a
     failure and is tried once more, so the figures stay warm ones. *)
  let warm_dir = Filename.concat dir "warm" in
  let rec fill tries =
    Sysinfo.rm_rf warm_dir;
    let t0 = Unix.gettimeofday () in
    match
      spawn ~name:"power_model" ~trace:false ~setup_only:false ~cache:warm_dir 0
    with
    | Ok (_, Some r) -> Some (r, Unix.gettimeofday () -. t0)
    | _ -> if tries > 1 then fill (tries - 1) else None
  in
  let fill = if workload = Queries.Warm_rerun then fill 2 else None in
  (* every cold repetition gets a fresh directory, removed afterwards *)
  let with_cache k f =
    if workload = Queries.Warm_rerun then f warm_dir
    else begin
      let cache = Filename.concat dir (Printf.sprintf "cache-%d" k) in
      Fun.protect ~finally:(fun () -> Sysinfo.rm_rf cache) (fun () -> f cache)
    end
  in
  let setups = ref [] and reps = ref [] in
  for k = 1 to setup_samples do
    with_cache (-k) (fun cache ->
        match spawn ~name ~trace:false ~setup_only:true ~cache (-k) with
        | Ok (setup, _) -> setups := setup :: !setups
        | Error _ -> ())
  done;
  (* repetition 0 warms up (page cache, allocator, host CPU) and is
     checked but left out of the figures *)
  let timed = ref 0.0 and k = ref 0 and warmup = ref [] in
  let enough () =
    (!timed >= float_of_int seconds
     && List.length !reps >= (if trace then 2 * min_reps else min_reps))
    || Unix.gettimeofday () -. t_start > max_run_s
  in
  while not (enough ()) do
    (* traced runs alternate untraced and traced repetitions, so the
       tracing overhead is measured under the same conditions *)
    let traced = trace && !k mod 2 = 1 in
    with_cache !k (fun cache ->
        match spawn ~name ~trace:traced ~setup_only:false ~cache !k with
        | Ok (setup, Some (r : rep)) ->
          Printf.eprintf
            "perfbench: %s repetition %d%s: set-up %.3f s, wall %.3f s, cpu \
             %.3f s, peak %.1f MiB\n%!"
            name !k (if traced then " (traced)" else "") setup r.wall_s
            r.cpu_s r.rss_mb;
          if !k = 0 then warmup := [ (r, traced) ]
          else begin
            timed := !timed +. r.wall_s;
            setups := setup :: !setups;
            reps := (r, traced) :: !reps
          end
        | Ok (_, None) | Error _ ->
          (* a failed repetition costs a second of the budget, so a run
             whose repetitions keep failing still ends *)
          timed := !timed +. 1.0);
    incr k
  done;
  let reps = List.rev !reps in
  let checked =
    (match fill with Some (r, _) -> [ (r, false) ] | None -> []) @ !warmup @ reps
  in
  (* output checks: the paper's findings (in the repetition), identical
     outputs across repetitions (and equal to the cold fill's for
     warm_rerun), and a sample bit-identical to dense simulation *)
  let first = match checked with (r, _) :: _ -> Some r | [] -> None in
  let expected_digest = Option.map (fun (r : rep) -> r.digest) first in
  let reference =
    Option.map
      (fun (r : rep) -> Queries.canonical (Queries.reference ~seed r.sample))
      first
  in
  List.iter
    (fun ((r : rep), _) ->
      let problems =
        r.failures
        @ (if Some r.digest = expected_digest then []
           else [ "outputs differ from the first repetition's" ])
        @
        if Some (Queries.canonical r.sample) = reference then []
        else [ "sample differs from the dense in-process reference" ]
      in
      if problems <> [] then begin
        incr failed;
        wrong := !wrong @ problems
      end)
    checked;
  if workload = Queries.Warm_rerun && fill = None then
    wrong := !wrong @ [ "no cold fill, so the repetitions were not warm" ];
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) !wrong;
  let pick traced =
    List.filter_map (fun (r, t) -> if t = traced then Some r else None) reps
  in
  let plain = pick false in
  let med g l = median (List.map g l) in
  let wall = med (fun (r : rep) -> r.wall_s) in
  let metrics =
    if not trace then
      let fill_s = match fill with Some (_, s) -> s | None -> 0.0 in
      [ ("wall_s", wall plain, "s");
        ("cpu_s", med (fun (r : rep) -> r.cpu_s) plain, "s");
        ("peak_rss_mb", med (fun (r : rep) -> r.rss_mb) plain, "MiB");
        ("setup_s", fill_s +. median !setups, "s") ]
    else begin
      let traced = pick true in
      let layer n = med (fun (r : rep) -> List.assoc n r.layers) traced in
      let names = match traced with r :: _ -> List.map fst r.layers | [] -> [] in
      let probes =
        match first with
        | Some r -> Probes.sim ~seed r.sample @ Probes.cache_sim ()
        | None -> []
      in
      List.map (fun n -> (n, layer n, unit_of n)) names
      @ List.map (fun (n, v) -> (n, v, unit_of n)) probes
      @ [ ("trace.overhead_pct", (wall traced /. wall plain -. 1.0) *. 100.0, "%") ]
    end
  in
  (* share of the host's CPU time that the hypervisor gave to other
     guests during the run: high values explain slow figures *)
  let steal_frac =
    (Sysinfo.steal_s () -. steal0)
    /. ((Unix.gettimeofday () -. t_start)
        *. float_of_int (Mp_util.Parallel.detected_cores ()))
  in
  Printf.printf
    "{\"run\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \
     \"repetitions\": %d, \"setups\": %d, \"nproc\": %s, \"detected_cores\": %d, \
     \"pool_size\": %d, \"shard_slots\": %d, \"steal_frac\": %.3f, \
     \"commit\": %S, \"build\": %S}}\n"
    name seed seconds trace (List.length reps) (List.length !setups)
    (Option.value ~default:"null" (Sys.getenv_opt "PERFBENCH_NPROC"))
    (Mp_util.Parallel.detected_cores ())
    (match first with Some r -> r.pool_size | None -> 0)
    (match first with Some r -> r.shard_slots | None -> 0)
    steal_frac
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"))
    (Measurement_cache.namespace ());
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!wrong = [] && reps <> [])
    !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))

(* ----- command line ------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      opts ((k, v) :: acc) rest
    | [] -> acc
    | a :: _ -> die "unexpected argument %S" a
  in
  let o = opts [] args in
  let get k = List.assoc_opt k o in
  let int k =
    match Option.map int_of_string_opt (get k) with
    | Some (Some v) -> v
    | _ -> die "%s needs an integer" k
  in
  let workload n =
    match List.assoc_opt n Queries.workloads with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" n
        (String.concat ", " (List.map fst Queries.workloads))
  in
  let trace =
    match get "--trace" with
    | Some "1" -> true
    | Some "0" | None -> false
    | Some v -> die "--trace takes 0 or 1, not %S" v
  in
  match (get "--rep", get "--workload") with
  | Some n, _ ->
    rep ~workload:(workload n) ~seed:(int "--seed") ~trace
      ~setup_only:(get "--setup-only" = Some "1")
      ~out:(Option.get (get "--out"))
  | None, Some n ->
    runner ~name:n ~workload:(workload n) ~seed:(int "--seed")
      ~seconds:(int "--seconds") ~trace
  | None, None -> die "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
