(* Tests for mp_sim: the cache simulator, the scoreboard core model and
   the measurement harness. Steady-state IPCs are checked against the
   values the POWER7 definition was calibrated to (paper Table 3). *)

open Mp_codegen
open Mp_sim

let arch () = Arch.power7 ()

let l1 = [ (Mp_uarch.Cache_geometry.L1, 1.0) ]

let mono a ?(size = 512) ?(dep = Builder.No_deps) ?mem_mix mnemonic =
  let ins = Arch.find_instruction a mnemonic in
  let synth = Synthesizer.create ~name:("t-" ^ mnemonic) a in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  if Mp_isa.Instruction.is_memory ins then
    Synthesizer.add_pass synth
      (Passes.memory_model (Option.value ~default:l1 mem_mix));
  Synthesizer.add_pass synth (Passes.dependency dep);
  Synthesizer.synthesize ~seed:77 synth

let config a ~cores ~smt = Mp_uarch.Uarch_def.config ~cores ~smt a.Arch.uarch

(* ----- cache simulator ------------------------------------------------------ *)

let test_cache_hit_after_fill () =
  let a = arch () in
  let c = Cache_sim.create a.Arch.uarch in
  let addr = 0x10000 in
  Alcotest.(check bool) "first access misses to MEM" true
    (Cache_sim.access c ~addr ~store:false = Mp_uarch.Cache_geometry.MEM);
  Alcotest.(check bool) "second access hits L1" true
    (Cache_sim.access c ~addr ~store:false = Mp_uarch.Cache_geometry.L1)

let test_cache_lru_eviction () =
  let a = arch () in
  let u = a.Arch.uarch in
  let c = Cache_sim.create u in
  let l1g = Mp_uarch.Uarch_def.cache u Mp_uarch.Cache_geometry.L1 in
  let ways = l1g.Mp_uarch.Cache_geometry.associativity in
  (* fill one L1 set beyond capacity; lines land in the same L2 set's
     siblings so they stay L2-resident *)
  let addr i = Mp_uarch.Cache_geometry.address_with_set l1g ~set:3 ~tag:i in
  for i = 0 to ways do
    ignore (Cache_sim.access c ~addr:(addr i) ~store:false)
  done;
  (* line 0 was least recently used: it must have been evicted from L1 *)
  Alcotest.(check bool) "evicted to L2" true
    (Cache_sim.access c ~addr:(addr 0) ~store:false <> Mp_uarch.Cache_geometry.L1)

let test_cache_counters () =
  let a = arch () in
  let c = Cache_sim.create a.Arch.uarch in
  ignore (Cache_sim.access c ~addr:0 ~store:false);
  ignore (Cache_sim.access c ~addr:0 ~store:false);
  Alcotest.(check int) "one MEM source" 1 (Cache_sim.hits c Mp_uarch.Cache_geometry.MEM);
  Alcotest.(check int) "one L1 hit" 1 (Cache_sim.hits c Mp_uarch.Cache_geometry.L1);
  Cache_sim.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache_sim.hits c Mp_uarch.Cache_geometry.L1);
  Alcotest.(check bool) "contents survive reset" true
    (Cache_sim.access c ~addr:0 ~store:false = Mp_uarch.Cache_geometry.L1)

let test_prefetcher_detects_streams () =
  let a = arch () in
  let c = Cache_sim.create a.Arch.uarch in
  for i = 0 to 15 do
    ignore (Cache_sim.access c ~addr:(i * 128) ~store:false)
  done;
  Alcotest.(check bool) "prefetches issued on sequential walk" true
    (Cache_sim.prefetches_issued c > 0)

(* ----- core model: steady-state IPC ---------------------------------------- *)

let run_ipc a p ~smt =
  let machine = Machine.create a.Arch.uarch in
  (Machine.run machine (config a ~cores:8 ~smt) p).Measurement.core_ipc

let check_ipc name expected mnemonic =
  let a = arch () in
  let ipc = run_ipc a (mono a mnemonic) ~smt:1 in
  Alcotest.(check (float 0.06)) name expected ipc

let test_ipc_simple_int () = check_ipc "add 3.5" 3.53 "add"
let test_ipc_fxu () = check_ipc "subf 2.0" 2.0 "subf"
let test_ipc_mul () = check_ipc "mulldo 1.4" 1.4 "mulldo"
let test_ipc_load () = check_ipc "lbz 1.68" 1.68 "lbz"
let test_ipc_load_update () = check_ipc "ldux 1.0" 1.0 "ldux"
let test_ipc_vsu () = check_ipc "xvmaddadp 2.0" 2.0 "xvmaddadp"
let test_ipc_vec_store () = check_ipc "stxvw4x 0.48" 0.48 "stxvw4x"

let test_dependency_chain_limits_ipc () =
  let a = arch () in
  let free = run_ipc a (mono a "fadd") ~smt:1 in
  let chained = run_ipc a (mono a ~dep:(Builder.Fixed 1) "fadd") ~smt:1 in
  Alcotest.(check bool) "chain is slower" true (chained < free /. 2.0);
  (* fadd latency is 6: a single chain sustains ~1/6 IPC *)
  Alcotest.(check (float 0.05)) "1/latency" (1.0 /. 6.0) chained

let test_dependency_distance_parallelism () =
  let a = arch () in
  let d2 = run_ipc a (mono a ~dep:(Builder.Fixed 2) "fadd") ~smt:1 in
  let d4 = run_ipc a (mono a ~dep:(Builder.Fixed 4) "fadd") ~smt:1 in
  Alcotest.(check bool) "more chains, more ILP" true (d4 > d2 +. 0.1)

let test_smt_increases_core_throughput () =
  let a = arch () in
  let p = mono a "subf" in
  let smt1 = run_ipc a p ~smt:1 in
  let smt2 = run_ipc a p ~smt:2 in
  (* one thread of subf already saturates both FXU pipes: SMT must not
     reduce throughput, and per-thread share must drop *)
  Alcotest.(check bool) "core throughput preserved" true (smt2 >= smt1 -. 0.1)

let test_smt_helps_latency_bound () =
  let a = arch () in
  let p = mono a ~dep:(Builder.Fixed 1) "fadd" in
  let smt1 = run_ipc a p ~smt:1 in
  let smt4 = run_ipc a p ~smt:4 in
  (* chains from different threads overlap: core IPC scales *)
  Alcotest.(check bool) "smt hides chain latency" true (smt4 > 3.0 *. smt1)

let test_memory_latency_lowers_ipc () =
  let a = arch () in
  let l1_ipc = run_ipc a (mono a ~dep:(Builder.Fixed 1) "ld") ~smt:1 in
  let mem_ipc =
    run_ipc a
      (mono a ~dep:(Builder.Fixed 1)
         ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld")
      ~smt:1
  in
  Alcotest.(check bool) "pointer chase to MEM is much slower" true
    (mem_ipc < l1_ipc /. 10.0)

(* ----- measurements ----------------------------------------------------------- *)

let test_counters_consistent () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "add" in
  let m = Machine.run machine (config a ~cores:1 ~smt:1) p in
  let c = Measurement.core_counters m in
  (* [Machine.default_measure] measured iterations of a 512-instruction
     body + bdnz; the window boundaries land at dispatch crossings, so
     the issue count can be off by up to one in-flight window on either
     side *)
  let iters = float_of_int Machine.default_measure in
  Alcotest.(check bool) "instructions" true
    (Float.abs (c.Measurement.instrs -. (iters *. 513.0)) <= 64.0);
  (* simple int ops issue to FXU and LSU pipes; together they cover all
     payload instructions *)
  let units = c.Measurement.fxu +. c.Measurement.lsu in
  Alcotest.(check bool) "unit events" true
    (Float.abs (units -. (iters *. 512.0)) <= 64.0);
  Alcotest.(check bool) "branches" true
    (c.Measurement.bru >= iters && c.Measurement.bru <= iters +. 1.0)

let test_memory_counters () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p =
    mono a
      ~mem_mix:[ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]
      "lbz"
  in
  let m = Machine.run machine (config a ~cores:1 ~smt:1) p in
  let c = Measurement.core_counters m in
  let total = c.Measurement.l1 +. c.Measurement.l2 +. c.Measurement.l3 +. c.Measurement.mem in
  Alcotest.(check bool) "loads counted" true (total > 1000.0);
  Alcotest.(check (float 0.06)) "half L1" 0.5 (c.Measurement.l1 /. total);
  Alcotest.(check (float 0.06)) "half L2" 0.5 (c.Measurement.l2 /. total)

let test_pmc_read_interface () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let m = Machine.run machine (config a ~cores:1 ~smt:1) (mono a "add") in
  let c = Measurement.core_counters m in
  Alcotest.(check (float 1e-9)) "PM_INST_CMPL" c.Measurement.instrs
    (Measurement.read c Mp_uarch.Pmc.PM_INST_CMPL);
  Alcotest.(check (float 1e-9)) "PM_RUN_CYC" c.Measurement.cycles
    (Measurement.read c Mp_uarch.Pmc.PM_RUN_CYC)

let test_measurement_determinism () =
  let a = arch () in
  let machine = Machine.create ~seed:5 a.Arch.uarch in
  let p = mono a "mulld" in
  let m1 = Machine.run machine (config a ~cores:2 ~smt:2) p in
  let m2 = Machine.run machine (config a ~cores:2 ~smt:2) p in
  Alcotest.(check (float 1e-9)) "same power" m1.Measurement.power m2.Measurement.power;
  Alcotest.(check (float 1e-9)) "same ipc" m1.Measurement.core_ipc m2.Measurement.core_ipc

let test_power_orderings () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let cfg = config a ~cores:8 ~smt:1 in
  let idle = Machine.idle_reading machine cfg in
  let loaded = (Machine.run machine cfg (mono a "xvmaddadp")).Measurement.power in
  Alcotest.(check bool) "loaded > idle" true (loaded > idle +. 1.0);
  let idle1 = Machine.idle_reading machine (config a ~cores:1 ~smt:1) in
  Alcotest.(check bool) "idle grows with cores" true (idle > idle1);
  Alcotest.(check bool) "baseline below idle" true
    (Machine.baseline_reading machine < idle1)

let test_power_scales_with_cores () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "add" in
  let p1 = (Machine.run machine (config a ~cores:1 ~smt:1) p).Measurement.power in
  let p8 = (Machine.run machine (config a ~cores:8 ~smt:1) p).Measurement.power in
  Alcotest.(check bool) "8 cores draw much more" true (p8 > p1 +. 15.0)

let test_smt_power_overhead () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  (* a latency-bound loop leaves pipes idle: SMT2 adds both activity
     and the SMT-logic overhead *)
  let p = mono a ~dep:(Builder.Fixed 1) "mulld" in
  let p1 = (Machine.run machine (config a ~cores:4 ~smt:1) p).Measurement.power in
  let p2 = (Machine.run machine (config a ~cores:4 ~smt:2) p).Measurement.power in
  Alcotest.(check bool) "smt2 draws more" true (p2 > p1)

let test_zero_data_reduces_power () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let build policy =
    let synth = Synthesizer.create ~name:"dataswitch" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:512);
    Synthesizer.add_pass synth (Passes.fill_sequence [ Arch.find_instruction a "xvmaddadp" ]);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.add_pass synth (Passes.init_registers policy);
    Synthesizer.add_pass synth (Passes.init_immediates policy);
    Synthesizer.synthesize ~seed:21 synth
  in
  let cfg = config a ~cores:8 ~smt:1 in
  let random = (Machine.run machine cfg (build Builder.Random_values)).Measurement.power in
  let zero = (Machine.run machine cfg (build (Builder.Constant 0L))).Measurement.power in
  Alcotest.(check bool) "zero data draws less" true (zero < random -. 1.0)

let test_bandwidth_contention () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld" in
  let one = (Machine.run machine (config a ~cores:1 ~smt:1) p).Measurement.core_ipc in
  let eight = (Machine.run machine (config a ~cores:8 ~smt:1) p).Measurement.core_ipc in
  Alcotest.(check bool) "8 cores share the memory bandwidth" true
    (eight < one *. 0.7)

let test_run_phases () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let cfg = config a ~cores:1 ~smt:1 in
  let hot = mono a "xvmaddadp" and cold = mono a ~dep:(Builder.Fixed 1) "fdiv" in
  let ph = Machine.run_phases machine cfg [ (hot, 1.0); (cold, 1.0) ] in
  let mh = Machine.run machine cfg hot and mc = Machine.run machine cfg cold in
  Alcotest.(check (float 0.5)) "power is the weighted mean"
    ((mh.Measurement.power +. mc.Measurement.power) /. 2.0)
    ph.Measurement.power;
  Alcotest.(check bool) "trace concatenates phases" true
    (Array.length ph.Measurement.power_trace > 4)

let test_heterogeneous_validation () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "add" in
  Alcotest.(check bool) "program count must equal SMT" true
    (try
       ignore (Machine.run_heterogeneous machine (config a ~cores:1 ~smt:2) [ p ]);
       false
     with Invalid_argument _ -> true)

let test_heterogeneous_mix () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let compute = mono a "xvmaddadp" in
  let memory =
    mono a ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld"
  in
  let cfg2 = config a ~cores:1 ~smt:2 in
  let both = Machine.run_heterogeneous machine cfg2 [ compute; memory ] in
  (* the compute thread must stay in steady state for the whole window:
     its per-thread IPC should be close to its homogeneous SMT1 rate *)
  let homog = Machine.run machine (config a ~cores:1 ~smt:1) compute in
  let compute_ipc = Measurement.ipc both.Measurement.threads.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "compute thread unstarved (%.2f vs %.2f)" compute_ipc
       homog.Measurement.core_ipc)
    true
    (compute_ipc > 0.8 *. homog.Measurement.core_ipc);
  (* the memory thread's counters show main-memory activity *)
  let memc = both.Measurement.threads.(1) in
  Alcotest.(check bool) "memory thread touches MEM" true
    (memc.Measurement.mem > 10.0);
  (* and the mixed pair draws more power than the compute pair alone *)
  let compute_pair = Machine.run machine cfg2 compute in
  Alcotest.(check bool) "distinct from homogeneous" true
    (Float.abs (both.Measurement.power -. compute_pair.Measurement.power) > 0.2)

let test_heterogeneous_determinism () =
  let a = arch () in
  let machine = Machine.create ~seed:11 a.Arch.uarch in
  let p1 = mono a "add" and p2 = mono a "mulld" in
  let cfg2 = config a ~cores:2 ~smt:2 in
  let m1 = Machine.run_heterogeneous machine cfg2 [ p1; p2 ] in
  let m2 = Machine.run_heterogeneous machine cfg2 [ p1; p2 ] in
  Alcotest.(check (float 1e-9)) "same power" m1.Measurement.power
    m2.Measurement.power

let test_smt_fairness () =
  (* two identical threads contending for the same pipes must receive
     comparable shares — the issue arbitration rotates *)
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "subf" in
  let m = Machine.run machine (config a ~cores:1 ~smt:2) p in
  let i0 = Measurement.ipc m.Measurement.threads.(0) in
  let i1 = Measurement.ipc m.Measurement.threads.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "fair shares (%.2f vs %.2f)" i0 i1)
    true
    (Float.abs (i0 -. i1) < 0.2 *. Float.max i0 i1)

let test_phases_validation () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  Alcotest.(check bool) "empty phases rejected" true
    (try ignore (Machine.run_phases machine (config a ~cores:1 ~smt:1) []); false
     with Invalid_argument _ -> true)

(* ----- measurement arithmetic ------------------------------------------ *)

let test_counter_arithmetic () =
  let c1 =
    { Measurement.zero_counters with
      Measurement.cycles = 100.0; instrs = 50.0; fxu = 10.0 }
  in
  let c2 =
    { Measurement.zero_counters with
      Measurement.cycles = 80.0; instrs = 30.0; fxu = 5.0 }
  in
  let s = Measurement.add_counters c1 c2 in
  Alcotest.(check (float 1e-9)) "instrs add" 80.0 s.Measurement.instrs;
  Alcotest.(check (float 1e-9)) "cycles take max" 100.0 s.Measurement.cycles;
  let k = Measurement.scale_counters 2.0 c1 in
  Alcotest.(check (float 1e-9)) "scaled" 20.0 k.Measurement.fxu;
  Alcotest.(check (float 1e-9)) "ipc" 0.5 (Measurement.ipc c1);
  Alcotest.(check (float 1e-9)) "rate" 0.1 (Measurement.rate c1 c1.Measurement.fxu)

let test_power_trace_properties () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let m = Machine.run machine (config a ~cores:4 ~smt:2) (mono a "fmadd") in
  Alcotest.(check bool) "trace has samples" true
    (Array.length m.Measurement.power_trace >= 16);
  let mean = Mp_util.Stats.mean m.Measurement.power_trace in
  Alcotest.(check bool) "sensor mean equals reported power" true
    (Float.abs (mean -. m.Measurement.power) < 1e-9);
  let _, hi = Mp_util.Stats.min_max m.Measurement.power_trace in
  Alcotest.(check bool) "noise is small" true
    (hi < m.Measurement.power *. 1.05)

let test_total_threads () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let m = Machine.run machine (config a ~cores:4 ~smt:2) (mono a "add") in
  Alcotest.(check int) "4 cores x smt2" 8 (Measurement.total_threads m)

let test_seed_changes_sensor () =
  (* a memory kernel consumes the machine seed (address-stream
     synthesis), so its sensor noise must differ between seeds *)
  let a = arch () in
  let p = mono a "lbz" in
  let c = config a ~cores:2 ~smt:1 in
  let m1 = Machine.run (Machine.create ~seed:1 a.Arch.uarch) c p in
  let m2 = Machine.run (Machine.create ~seed:2 a.Arch.uarch) c p in
  Alcotest.(check bool) "different sensor noise" true
    (m1.Measurement.power <> m2.Measurement.power);
  Alcotest.(check bool) "but close" true
    (Float.abs (m1.Measurement.power -. m2.Measurement.power)
     < 0.05 *. m1.Measurement.power)

let test_seed_independent_identical () =
  (* a pure compute kernel built only from seed-independent passes
     draws nothing from the machine seed — not even sensor noise, which
     switches to the canonical rng so warm caches can be shared across
     seeds. Measurements must be bit-identical between machines. *)
  let a = arch () in
  let p = mono a "mulld" in
  let c = config a ~cores:2 ~smt:1 in
  let m1 = Machine.run (Machine.create ~cache:false ~seed:1 a.Arch.uarch) c p in
  let m2 = Machine.run (Machine.create ~cache:false ~seed:2 a.Arch.uarch) c p in
  Alcotest.(check bool) "bit-identical across machine seeds" true
    (compare m1 m2 = 0)

(* ----- heterogeneous batch -------------------------------------------------- *)

let test_hetero_batch_matches_serial () =
  let a = arch () in
  let c = config a ~cores:2 ~smt:2 in
  let p1 = mono a "mulld" and p2 = mono a "lbz" in
  let jobs = [ (c, [ p1; p2 ]); (c, [ p2; p1 ]); (c, [ p1; p1 ]) ] in
  let serial_machine = Machine.create ~cache:false a.Arch.uarch in
  let serial =
    List.map
      (fun (c, ps) -> Machine.run_heterogeneous serial_machine c ps)
      jobs
  in
  let batch_machine = Machine.create ~cache:false a.Arch.uarch in
  let pool = Mp_util.Parallel.create 4 in
  let batch = Machine.run_heterogeneous_batch ~pool batch_machine jobs in
  Mp_util.Parallel.shutdown pool;
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (s.Measurement.program ^ " hetero batch bit-identical")
        true
        (compare s b = 0))
    serial batch

(* ----- disk-persistent measurement cache ------------------------------------ *)

let with_cache_dir dir f =
  Unix.putenv "MP_CACHE_DIR" dir;
  Fun.protect ~finally:(fun () -> Unix.putenv "MP_CACHE_DIR" "_mp_cache") f

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* a directory name of this process's own, emptied of anything an
   earlier process with the same pid left there *)
let fresh_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mp_cache_test_%s_%d" tag (Unix.getpid ()))
  in
  remove_tree dir;
  dir

let cache_stats machine =
  match Machine.measurement_cache machine with
  | Some c -> Measurement_cache.stats c
  | None -> Alcotest.fail "expected a measurement cache"

let test_disk_cache_roundtrip () =
  with_cache_dir (fresh_dir "rt") (fun () ->
      let a = arch () in
      let p = mono a "mulld" in
      let other = mono a "lbz" in
      let c = config a ~cores:2 ~smt:1 in
      (* reference value, no caching at all *)
      let m0 = Machine.create ~cache:false a.Arch.uarch in
      let r0 = Machine.run m0 c p in
      (* m1 interns [other] first, so its intern-table history differs
         from a machine that only ever saw [p] — the disk entry it
         writes must be bit-identical anyway *)
      let m1 = Machine.create a.Arch.uarch in
      ignore (Machine.run m1 c other);
      let r1 = Machine.run m1 c p in
      Alcotest.(check bool) "writer matches reference" true
        (compare r0 r1 = 0);
      let dir = Sys.getenv "MP_CACHE_DIR" in
      Alcotest.(check bool) "cache dir populated" true
        (Sys.file_exists dir && Array.length (Sys.readdir dir) > 0);
      (* a fresh machine with a different intern history: in-memory
         cold, disk warm *)
      let m2 = Machine.create a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "disk-served result bit-identical" true
        (compare r0 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "served from disk" 1 s.Measurement_cache.disk_hits;
      Alcotest.(check int) "no simulation ran" 0 s.Measurement_cache.misses)

let test_disk_cache_shared_across_seeds () =
  with_cache_dir (fresh_dir "seedshare") (fun () ->
      let a = arch () in
      let p = mono a "mulld" in
      let c = config a ~cores:2 ~smt:1 in
      let m1 = Machine.create ~seed:1 a.Arch.uarch in
      let r1 = Machine.run m1 c p in
      (* [p] is built only from seed-independent passes, so the seed is
         folded out of its cache key: the entry written under seed 1
         must be served to a fresh machine running under seed 2 *)
      let m2 = Machine.create ~seed:2 a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "served bit-identical" true (compare r1 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "served from disk" 1 s.Measurement_cache.disk_hits;
      Alcotest.(check int) "no simulation ran" 0 s.Measurement_cache.misses)

let test_disk_cache_corrupt_skipped () =
  with_cache_dir (fresh_dir "corrupt") (fun () ->
      let a = arch () in
      let p = mono a "subf" in
      let c = config a ~cores:1 ~smt:1 in
      let m1 = Machine.create a.Arch.uarch in
      let r1 = Machine.run m1 c p in
      (* vandalise every entry on disk, walking the shard subdirectories *)
      let dir = Sys.getenv "MP_CACHE_DIR" in
      let rec vandalise d =
        Array.iter
          (fun f ->
            let path = Filename.concat d f in
            if Sys.is_directory path then vandalise path
            else begin
              let oc = open_out_bin path in
              output_string oc "not a marshalled measurement";
              close_out oc
            end)
          (Sys.readdir d)
      in
      vandalise dir;
      (* corrupt entries are skipped without error and recomputed *)
      let m2 = Machine.create a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "recomputed bit-identical" true
        (compare r1 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "nothing served from disk" 0
        s.Measurement_cache.disk_hits;
      Alcotest.(check int) "recomputed once" 1 s.Measurement_cache.misses)

let rec no_tmp_left d =
  Array.for_all
    (fun f ->
      let path = Filename.concat d f in
      if Sys.is_directory path then no_tmp_left path
      else not (String.length f >= 5 && String.sub f 0 5 = ".tmp."))
    (Sys.readdir d)

let test_disk_cache_concurrent_writers () =
  let a = arch () in
  let p = mono a "mulld" in
  let c = config a ~cores:1 ~smt:1 in
  let m = Machine.run (Machine.create ~cache:false a.Arch.uarch) c p in
  let dir = fresh_dir "concwr" in
  let disk =
    { Measurement_cache.dir; namespace = Measurement_cache.namespace () }
  in
  let key i = Printf.sprintf "ab%06dcafe" (i mod 4) in
  (* two independent tables race appends of the same keys into the
     same directory — they share the process's one writer, and
     concurrent writers of one key store identical bytes, so whichever
     frame lands last wins harmlessly *)
  let writer () =
    let t = Measurement_cache.create ~disk () in
    for i = 0 to 39 do
      Measurement_cache.add t (key i) m
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  Domain.join d1;
  Domain.join d2;
  let r = Measurement_cache.create ~disk () in
  for i = 0 to 3 do
    match Measurement_cache.find r (key i) with
    | Some got ->
      Alcotest.(check bool) "raced entry bit-identical" true
        (compare got m = 0)
    | None -> Alcotest.fail "concurrently written entry missing"
  done;
  Alcotest.(check bool) "no temp files left behind" true (no_tmp_left dir);
  let s = Measurement_cache.disk_stats dir in
  Alcotest.(check int) "one entry per key" 4 s.Measurement_cache.ds_entries;
  Alcotest.(check int) "one segment per process" 1
    s.Measurement_cache.ds_segments

let test_replay_store_concurrent_writers () =
  let a = arch () in
  let u = a.Arch.uarch in
  let p = mono a "mulld" in
  (* a dense single-thread run at the Core_sim level supplies the
     ground-truth activity and period delta a replay record stores *)
  let opmap = Core_sim.opmap_create () in
  let dp = Core_sim.deploy ~uarch:u ~opmap ~streams:(fun _ -> [||]) p in
  let activity, pd =
    Core_sim.run_ex ~uarch:u ~opmap ~warmup:1 ~measure:4 [| dp |]
  in
  let fp = Measurement_cache.uarch_fingerprint u in
  let key =
    Replay.key ~uarch:fp ~smt:1 ~warmup:1
      ~mem_latency:u.Mp_uarch.Uarch_def.mem_latency [| p |]
  in
  let dir = fresh_dir "replaywr" in
  let writer () =
    let t = Replay.create ~disk_dir:dir () in
    for _ = 1 to 20 do
      Replay.record t ~opmap ~measure:4 key activity pd
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  Domain.join d1;
  Domain.join d2;
  (* a fresh table must reconstruct the activity from disk exactly as
     an uncontended in-memory table would (replay-vs-dense equivalence
     itself is covered by the replay suite) *)
  let daf = Ir.data_activity_factor p in
  let reference = Replay.create () in
  Replay.record reference ~opmap ~measure:4 key activity pd;
  let expect =
    match Replay.find reference ~opmap ~daf ~warmup:1 ~measure:4 key with
    | Some a -> a
    | None -> Alcotest.fail "reference table did not serve its own record"
  in
  let t = Replay.create ~disk_dir:dir () in
  (match Replay.find t ~opmap ~daf ~warmup:1 ~measure:4 key with
   | Some got ->
     Alcotest.(check bool) "raced store serves the uncontended record" true
       (compare got expect = 0)
   | None -> Alcotest.fail "record not served from the replay store");
  Alcotest.(check bool) "no temp files left behind" true (no_tmp_left dir)

(* ----- the segment log -------------------------------------------------------- *)

module Disk_log = Mp_util.Disk_log

let segments_in dir =
  Sys.readdir dir |> Array.to_list |> List.filter Disk_log.is_segment
  |> List.sort compare

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The child half of the cross-process tests: this test binary
   re-executed as [exe --disk-log-child MODE DIR], optionally under a
   shell wrapper. It exits 0 unless its own step raised. *)
let disk_log_child mode dir =
  (match mode with
   | "append" ->
     (* one measurement entry, written after the parent indexed [dir] *)
     let a = arch () in
     let m =
       Machine.run
         (Machine.create ~cache:false a.Arch.uarch)
         (config a ~cores:1 ~smt:1) (mono a "mulld")
     in
     let disk =
       { Measurement_cache.dir; namespace = Measurement_cache.namespace () }
     in
     Measurement_cache.add (Measurement_cache.create ~disk ()) "xproc" m
   | "failed-append" ->
     (* run under a file-size limit: the second record cannot fit, so
        its write fails part-way and must not take the third down *)
     Sys.set_signal Sys.sigxfsz Sys.Signal_ignore;
     let log = Disk_log.shared ~dir ~namespace:"fa" in
     Disk_log.append log ~schema:0 "before" "small";
     Disk_log.append log ~schema:0 "torn" (String.make 16384 'x');
     Disk_log.append log ~schema:0 "after" "small"
   | m -> failwith ("unknown child mode " ^ m));
  exit 0

let run_child ?(wrap = []) mode dir =
  let argv =
    Array.of_list (wrap @ [ Sys.executable_name; "--disk-log-child"; mode; dir ])
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail ("child process failed: " ^ mode)

(* five string records in one segment of a fresh directory *)
let small_log tag =
  let dir = fresh_dir tag in
  let w = Disk_log.create ~dir ~namespace:"t" in
  let records = List.init 5 (fun i -> (Printf.sprintf "k%d" i, String.make (40 + i) 'v')) in
  List.iter (fun (k, v) -> Disk_log.append w ~schema:1 k v) records;
  match segments_in dir with
  | [ seg ] -> (dir, Filename.concat dir seg, records)
  | _ -> Alcotest.fail "expected exactly one segment"

let lookup dir k : string option =
  Disk_log.find (Disk_log.create ~dir ~namespace:"t") ~schema:1 k

let test_log_torn_tail () =
  let dir, seg, records = small_log "torn" in
  let s = read_bytes seg in
  (* cut inside the last frame, as a crash mid-append would *)
  write_bytes seg (String.sub s 0 (String.length s - 3));
  List.iteri
    (fun i (k, v) ->
      Alcotest.(check (option string)) k
        (if i < 4 then Some v else None)
        (lookup dir k))
    records

let test_log_flipped_payload_byte () =
  with_cache_dir (fresh_dir "flip") (fun () ->
      let a = arch () in
      let p = mono a "fadd" in
      let c = config a ~cores:1 ~smt:1 in
      let r1 = Machine.run (Machine.create a.Arch.uarch) c p in
      let dir = Sys.getenv "MP_CACHE_DIR" in
      (* the cache root holds one frame; its middle byte is payload *)
      let seg =
        match segments_in dir with
        | [ s ] -> Filename.concat dir s
        | _ -> Alcotest.fail "expected one cache segment"
      in
      let b = Bytes.of_string (read_bytes seg) in
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
      write_bytes seg (Bytes.to_string b);
      let m2 = Machine.create a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "recomputed bit-identical" true (compare r1 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "nothing served from disk" 0
        s.Measurement_cache.disk_hits;
      Alcotest.(check int) "recomputed once" 1 s.Measurement_cache.misses)

type damage = Flip of int * int | Truncate of int

(* Any single-byte mutation or truncation of a segment leaves every
   lookup either exact or a miss — and never raises. Offsets are taken
   modulo the segment's length. *)
let prop_log_damage =
  let log =
    lazy
      (let dir, seg, records = small_log "damage" in
       (dir, seg, records, read_bytes seg))
  in
  let print = function
    | Flip (i, x) -> Printf.sprintf "flip byte %d by %d" i x
    | Truncate i -> Printf.sprintf "truncate at %d" i
  in
  let gen =
    QCheck.Gen.(
      oneof
        [ map2 (fun i x -> Flip (i, x)) nat (int_range 1 255);
          map (fun i -> Truncate i) nat ])
  in
  QCheck.Test.make ~name:"damaged segment exact or miss" ~count:300
    (QCheck.make ~print gen) (fun d ->
      let dir, seg, records, pristine = Lazy.force log in
      let n = String.length pristine in
      let damaged =
        match d with
        | Truncate i -> String.sub pristine 0 (i mod n)
        | Flip (i, x) ->
          let b = Bytes.of_string pristine in
          let i = i mod n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
          Bytes.to_string b
      in
      write_bytes seg damaged;
      List.for_all
        (fun (k, v) ->
          match lookup dir k with None -> true | Some got -> got = v)
        records)

let test_log_failed_append () =
  let dir = fresh_dir "failapp" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  run_child
    ~wrap:[ "/bin/sh"; "-c"; "trap '' XFSZ; ulimit -f 4 && exec \"$@\""; "sh" ]
    "failed-append" dir;
  let find k : string option =
    Disk_log.find (Disk_log.create ~dir ~namespace:"fa") ~schema:0 k
  in
  Alcotest.(check (option string)) "record before the failure" (Some "small")
    (find "before");
  Alcotest.(check (option string)) "torn record is a miss" None (find "torn");
  Alcotest.(check (option string)) "record after the failure" (Some "small")
    (find "after");
  Alcotest.(check int) "the failure closed its segment" 2
    (List.length (segments_in dir))

let test_log_cross_process () =
  let dir = fresh_dir "xproc" in
  let disk =
    { Measurement_cache.dir; namespace = Measurement_cache.namespace () }
  in
  let t = Measurement_cache.create ~disk () in
  (* the first lookup indexes the (empty) directory *)
  Alcotest.(check bool) "absent before the child writes" true
    (Measurement_cache.find t "xproc" = None);
  run_child "append" dir;
  let a = arch () in
  let expect =
    Machine.run
      (Machine.create ~cache:false a.Arch.uarch)
      (config a ~cores:1 ~smt:1) (mono a "mulld")
  in
  match Measurement_cache.find t "xproc" with
  | Some got ->
    Alcotest.(check bool) "child's entry bit-identical" true
      (compare got expect = 0)
  | None -> Alcotest.fail "entry appended by another process not found"

(* Old per-entry files and shard directories of schema v3, in both
   stores, as an earlier build would have left them. *)
let plant_v3_entries dir =
  let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  let replay = Filename.concat dir "replay" in
  List.iter mkdir
    [ dir; Filename.concat dir "ab"; replay; Filename.concat replay "cd" ];
  let files =
    [ "v3-0123-abcd"; "ab/v3-0123-ab01"; "replay/cd/v3-0123-cd02";
      "replay/v3-0123-4242-0a0b.seg" ]
  in
  List.iter (fun f -> write_bytes (Filename.concat dir f) "old entry") files;
  (* everything planted, shard directories included *)
  files @ [ "ab"; "replay/cd" ]

let test_disk_cache_segment_layout () =
  with_cache_dir (fresh_dir "seglayout") (fun () ->
      let dir = Sys.getenv "MP_CACHE_DIR" in
      let old = plant_v3_entries dir in
      let a = arch () in
      let p = mono a "mulld" in
      let c = config a ~cores:1 ~smt:1 in
      let m1 = Machine.create a.Arch.uarch in
      let r1 = Machine.run m1 c p in
      List.iter
        (fun f ->
          Alcotest.(check bool) ("pruned: " ^ f) false
            (Sys.file_exists (Filename.concat dir f)))
        old;
      (* the root holds this process's segment and the replay store,
         nothing else: no shard directories, no per-entry files *)
      let prefix = Measurement_cache.namespace () ^ "-" in
      Array.iter
        (fun f ->
          if f <> "replay" then
            Alcotest.(check bool) ("segment of this build: " ^ f) true
              (Disk_log.is_segment f && String.starts_with ~prefix f))
        (Sys.readdir dir);
      Alcotest.(check int) "one segment per process" 1
        (List.length (segments_in dir));
      let m2 = Machine.create a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "served bit-identical" true (compare r1 r2 = 0);
      Alcotest.(check int) "served from disk" 1
        (cache_stats m2).Measurement_cache.disk_hits)

let test_replay_store_housekeeping () =
  (* stale replay files go on first use of the directory *)
  let dir = fresh_dir "replayhk" in
  let old = plant_v3_entries dir in
  with_cache_dir dir (fun () -> ignore (Machine.create (arch ()).Arch.uarch));
  List.iter
    (fun f ->
      Alcotest.(check bool) ("pruned: " ^ f) false
        (Sys.file_exists (Filename.concat dir f)))
    old;
  (* gc bounds both stores together, oldest segment first *)
  let replay = Filename.concat dir "replay" in
  let t0 = Unix.gettimeofday () -. 1000.0 in
  let seg d name bytes mtime =
    let path = Filename.concat d name in
    write_bytes path (String.make bytes 'x');
    Unix.utimes path mtime mtime;
    path
  in
  let oldest = seg replay "r-old.seg" 1000 t0 in
  let cache_seg = seg dir "c.seg" 1000 (t0 +. 10.0) in
  let newest = seg replay "r-new.seg" 1000 (t0 +. 20.0) in
  let s = Measurement_cache.gc ~max_bytes:2500 dir in
  Alcotest.(check int) "replay segments counted" 3 s.Measurement_cache.entries;
  Alcotest.(check int) "replay bytes counted" 3000
    s.Measurement_cache.bytes_before;
  Alcotest.(check int) "one segment evicted" 1 s.Measurement_cache.removed;
  Alcotest.(check bool) "oldest replay segment evicted" false
    (Sys.file_exists oldest);
  Alcotest.(check bool) "cache segment kept" true (Sys.file_exists cache_seg);
  Alcotest.(check bool) "newest replay segment kept" true
    (Sys.file_exists newest)

(* ----- multi-process batches ------------------------------------------------ *)

let test_procs_batch_matches_serial () =
  let a = arch () in
  (* a non-dyadic core count, memory and compute kernels, and a
     heterogeneous batch: the full surface of the wire protocol *)
  let p1 = mono a "mulld" and p2 = mono a "lbz" in
  let c3 = config a ~cores:3 ~smt:2 in
  let c1 = config a ~cores:1 ~smt:1 in
  let jobs = [ (c3, p1); (c1, p1); (c3, p2); (c1, p2) ] in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  let batch = Machine.run_batch ~procs:2 m2 jobs in
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (s.Measurement.program ^ " procs bit-identical")
        true
        (compare s b = 0))
    serial batch;
  (* heterogeneous jobs ride the same wire *)
  let hjobs = [ (c3, [ p1; p2 ]); (c3, [ p2; p1 ]) ] in
  let hserial =
    List.map (fun (c, ps) -> Machine.run_heterogeneous m1 c ps) hjobs
  in
  let m3 = Machine.create ~cache:false a.Arch.uarch in
  let hbatch = Machine.run_heterogeneous_batch ~procs:2 m3 hjobs in
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (s.Measurement.program ^ " hetero procs bit-identical")
        true
        (compare s b = 0))
    hserial hbatch

let test_single_flight () =
  let cache = Measurement_cache.create () in
  let calls = Atomic.make 0 in
  let dummy =
    {
      Measurement.config = { Mp_uarch.Uarch_def.cores = 1; smt = 1 };
      program = "sf";
      threads = [||];
      core_ipc = 0.0;
      power = 1.0;
      power_trace = [||];
    }
  in
  let pool = Mp_util.Parallel.create 4 in
  let rs =
    Mp_util.Parallel.map pool
      (fun _ ->
        Measurement_cache.find_or_add cache "the-key" (fun () ->
            Atomic.incr calls;
            Unix.sleepf 0.02;
            dummy))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Mp_util.Parallel.shutdown pool;
  (* concurrent misses on one key run the computation at most once *)
  Alcotest.(check int) "compute ran once" 1 (Atomic.get calls);
  List.iter
    (fun r ->
      Alcotest.(check bool) "same value" true (compare r dummy = 0))
    rs;
  let s = Measurement_cache.stats cache in
  Alcotest.(check int) "one miss (one simulation)" 1 s.Measurement_cache.misses;
  Alcotest.(check int) "five hits" 5 s.Measurement_cache.hits

let test_cache_gc () =
  let dir = fresh_dir "gc" in
  (try Unix.mkdir dir 0o755 with _ -> ());
  let write name bytes mtime =
    let path = Filename.concat dir name in
    write_bytes path (String.make bytes 'x');
    Unix.utimes path mtime mtime
  in
  let t0 = Unix.gettimeofday () -. 1000.0 in
  (* five 1000-byte segments, oldest first, plus a file that is not a
     segment and so is not the sweep's to count or evict *)
  write "a.seg" 1000 t0;
  write "b.seg" 1000 (t0 +. 10.0);
  write "e.seg" 1000 (t0 +. 15.0);
  write "c.seg" 1000 (t0 +. 20.0);
  write "d.seg" 1000 (t0 +. 30.0);
  write "notes" 1000 t0;
  let s = Measurement_cache.gc ~max_bytes:2500 dir in
  (* the three oldest segments go, whole *)
  Alcotest.(check int) "segments examined" 5 s.Measurement_cache.entries;
  Alcotest.(check int) "removed oldest three" 3 s.Measurement_cache.removed;
  Alcotest.(check int) "bytes before" 5000 s.Measurement_cache.bytes_before;
  Alcotest.(check int) "bytes after" 2000 s.Measurement_cache.bytes_after;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " evicted") false
        (Sys.file_exists (Filename.concat dir f)))
    [ "a.seg"; "b.seg"; "e.seg" ];
  Alcotest.(check bool) "newest kept" true
    (Sys.file_exists (Filename.concat dir "d.seg"));
  Alcotest.(check bool) "other files never touched" true
    (Sys.file_exists (Filename.concat dir "notes"));
  (* already under the bound: a second sweep removes nothing *)
  let s2 = Measurement_cache.gc ~max_bytes:2500 dir in
  Alcotest.(check int) "idempotent" 0 s2.Measurement_cache.removed;
  (* missing directory is an empty sweep, not an error *)
  let s3 = Measurement_cache.gc ~max_bytes:1 (dir ^ "-nonexistent") in
  Alcotest.(check int) "missing dir" 0 s3.Measurement_cache.entries

let test_cache_gc_env () =
  Unix.putenv "MP_CACHE_MAX_MB" "2";
  Alcotest.(check (option int)) "MiB to bytes" (Some (2 * 1024 * 1024))
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" "0.5";
  Alcotest.(check (option int)) "fractional" (Some (512 * 1024))
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" "junk";
  Alcotest.(check (option int)) "garbage ignored" None
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" "-3";
  Alcotest.(check (option int)) "negative ignored" None
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" ""

(* ----- structural keys and batch dedup -------------------------------------- *)

(* A deliberately diverse program set — distinct opcodes, sizes,
   dependency modes, memory mixes and branch patterns, with structural
   duplicates built independently — to exercise the key derivations. *)
let diverse_programs a =
  let brancher () =
    let synth = Synthesizer.create ~name:"kv-branch" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:64);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "add" ]);
    Synthesizer.add_pass synth
      (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.2
         ~taken_ratio:0.5 ~pattern_length:4);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:31 synth
  in
  [
    mono a "add";
    mono a "add";                   (* independently built duplicate *)
    mono a ~size:64 "add";
    mono a "mulld";
    mono a ~dep:(Builder.Fixed 1) "mulld";
    mono a "fadd";
    mono a "xvmaddadp";
    mono a "lbz";
    mono a
      ~mem_mix:
        [ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]
      "lbz";
    brancher ();
    brancher ();                    (* duplicate with a branch pattern *)
  ]

let test_key_equivalence_classes () =
  (* the structural-fold keys must induce exactly the hit/miss
     equivalence classes of the marshal-digest keys over a diverse job
     population: programs × configs × seed presence × windows *)
  let a = arch () in
  let fp = Measurement_cache.uarch_fingerprint a.Arch.uarch in
  let jobs =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (cores, smt) ->
            List.map
              (fun (seed, warmup, measure) -> (p, cores, smt, seed, warmup, measure))
              [ (Some 1, 1, 8); (Some 2, 1, 8); (None, 1, 8); (Some 1, 2, 16) ])
          [ (1, 1); (4, 2) ])
      (diverse_programs a)
  in
  let keys =
    List.map
      (fun ((p : Ir.t), cores, smt, seed, warmup, measure) ->
        let c = config a ~cores ~smt in
        ( Measurement_cache.key_structural ~uarch:fp ?seed ~config:c ~warmup
            ~measure ~name:p.Ir.name [| p |],
          Measurement_cache.key_marshal ~uarch:fp ?seed ~config:c ~warmup
            ~measure ~name:p.Ir.name [| p |] ))
      jobs
  in
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s_eq = fst keys.(i) = fst keys.(j) in
      let m_eq = snd keys.(i) = snd keys.(j) in
      if s_eq <> m_eq then incr mismatches
    done
  done;
  Alcotest.(check int) "identical equivalence classes" 0 !mismatches;
  (* and the classes are non-trivial: the independently built
     duplicates actually collide *)
  let dup_pairs =
    Array.to_list keys
    |> List.filter (fun (s, _) -> s = fst keys.(0))
    |> List.length
  in
  Alcotest.(check bool) "duplicates share a key" true (dup_pairs >= 2)

let test_struct_hash_precomputed () =
  (* the hash carried on a finalized program is exactly the recomputed
     one, and editing the body without rehashing is detectable *)
  let a = arch () in
  List.iter
    (fun (p : Ir.t) ->
      Alcotest.(check bool) (p.Ir.name ^ " hash consistent") true
        (Ir.struct_hash p = Ir.struct_hash (Ir.rehash p)))
    (diverse_programs a)

let test_batch_dedup_scatter () =
  (* duplicates inside one batch: results must be bit-identical to the
     undeduplicated run, in original order, with the collapse counted *)
  let a = arch () in
  let p1 = mono a "mulld" in
  let p2 = mono a "fadd" in
  let p3 = mono a "lbz" in
  let c1 = config a ~cores:2 ~smt:1 in
  let c2 = config a ~cores:4 ~smt:2 in
  (* (c1,p1) three times and (c2,p2) twice -> 3 collapsed positions;
     (c2,p1) is a distinct point despite sharing the program *)
  let jobs =
    [ (c1, p1); (c2, p2); (c1, p1); (c1, p3); (c2, p2); (c1, p1); (c2, p1) ]
  in
  let plain =
    Machine.run_batch ~dedup:false (Machine.create ~cache:false a.Arch.uarch)
      jobs
  in
  let d0 = Machine.batch_dup_collapsed () in
  let deduped =
    Machine.run_batch (Machine.create ~cache:false a.Arch.uarch) jobs
  in
  Alcotest.(check int) "three positions collapsed" 3
    (Machine.batch_dup_collapsed () - d0);
  List.iteri
    (fun i (p, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "position %d bit-identical" i)
        true (compare p d = 0))
    (List.combine plain deduped)

let test_hetero_batch_dedup_scatter () =
  let a = arch () in
  let p1 = mono a "mulld" in
  let p2 = mono a "lbz" in
  let c = config a ~cores:2 ~smt:2 in
  let jobs =
    [ (c, [ p1; p2 ]); (c, [ p2; p1 ]); (c, [ p1; p2 ]); (c, [ p1; p1 ]) ]
  in
  let plain =
    Machine.run_heterogeneous_batch ~dedup:false
      (Machine.create ~cache:false a.Arch.uarch)
      jobs
  in
  let d0 = Machine.batch_dup_collapsed () in
  let deduped =
    Machine.run_heterogeneous_batch
      (Machine.create ~cache:false a.Arch.uarch)
      jobs
  in
  (* only the exact per-thread assignment repeat collapses; the swapped
     assignment is a different point *)
  Alcotest.(check int) "one position collapsed" 1
    (Machine.batch_dup_collapsed () - d0);
  List.iteri
    (fun i (p, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "hetero position %d bit-identical" i)
        true (compare p d = 0))
    (List.combine plain deduped)

(* ----- exact period skipping ------------------------------------------------ *)

(* Dense and period-skipped runs must be bit-identical: same counters,
   transitions, cache stats, power and trace. Fresh uncached machines on
   both sides so nothing is served from memo tables. *)
let period_equiv ?(cores = 1) ?(smt = 1) ?(warmup = 1) ?(measure = 48) name p =
  let a = arch () in
  let cfg = config a ~cores ~smt in
  let dense =
    Machine.run ~warmup ~measure ~period:false
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg p
  in
  let skip =
    Machine.run ~warmup ~measure ~period:true
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg p
  in
  Alcotest.(check bool) (name ^ " bit-identical") true (compare dense skip = 0)

let test_period_detects_and_skips () =
  (* pipe residuals are integer ticks over the uarch denominator, so
     every kernel's steady state repeats bit-for-bit; the simplest case
     — fadd on occupancy-1.0 pipes — must be detected and skipped *)
  let a = arch () in
  let hits0 = Core_sim.period_hits () in
  let skipped0 = Core_sim.cycles_skipped () in
  let m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  ignore
    (Machine.run ~measure:64 ~period:true m (config a ~cores:1 ~smt:1)
       (mono a "fadd"));
  Alcotest.(check bool) "periodic kernel detected" true
    (Core_sim.period_hits () > hits0);
  Alcotest.(check bool) "cycles were skipped" true
    (Core_sim.cycles_skipped () > skipped0)

let test_period_equiv_compute () =
  let a = arch () in
  period_equiv "add smt1" (mono a "add");
  period_equiv "mulldo smt1" (mono a "mulldo");
  period_equiv ~smt:2 "subf smt2" (mono a "subf");
  period_equiv ~smt:4 "fadd chain smt4" (mono a ~dep:(Builder.Fixed 1) "fadd")

let test_period_equiv_windows () =
  let a = arch () in
  let p = mono a "fmadd" in
  period_equiv ~warmup:3 ~measure:17 "warmup 3 measure 17" p;
  period_equiv ~warmup:1 ~measure:5 "measure 5" p;
  period_equiv ~cores:4 ~smt:2 ~measure:32 "4 cores smt2" p

let test_period_equiv_branches () =
  let a = arch () in
  let build ~taken_ratio ~pattern_length =
    let synth = Synthesizer.create ~name:"brper" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:128);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "add" ]);
    Synthesizer.add_pass synth
      (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.2
         ~taken_ratio ~pattern_length);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:31 synth
  in
  period_equiv "balanced pattern" (build ~taken_ratio:0.5 ~pattern_length:4);
  period_equiv "biased pattern" (build ~taken_ratio:0.8 ~pattern_length:5);
  period_equiv ~smt:2 "branches smt2" (build ~taken_ratio:0.5 ~pattern_length:3)

let test_period_equiv_memory () =
  let a = arch () in
  period_equiv ~measure:32 "L1 loads" (mono a "lbz");
  period_equiv ~measure:32 "L1/L2 mix"
    (mono a
       ~mem_mix:
         [ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]
       "lbz");
  period_equiv ~measure:16 "MEM chase"
    (mono a ~dep:(Builder.Fixed 1)
       ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ]
       "ld");
  period_equiv ~smt:2 ~measure:16 "three levels smt2"
    (mono a
       ~mem_mix:
         [ (Mp_uarch.Cache_geometry.L1, 0.4);
           (Mp_uarch.Cache_geometry.L2, 0.3);
           (Mp_uarch.Cache_geometry.L3, 0.3) ]
       "lbz")

let test_period_equiv_heterogeneous () =
  let a = arch () in
  let compute = mono a "xvmaddadp" in
  let memory = mono a "lbz" in
  let cfg = config a ~cores:2 ~smt:2 in
  let dense =
    Machine.run_heterogeneous ~measure:32 ~period:false
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg [ compute; memory ]
  in
  let skip =
    Machine.run_heterogeneous ~measure:32 ~period:true
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg [ compute; memory ]
  in
  Alcotest.(check bool) "hetero bit-identical" true (compare dense skip = 0)

let test_period_aperiodic_fallback () =
  (* A stream whose length (127, prime) exceeds the measured window:
     every iteration boundary has a distinct stream phase, so no
     fingerprint repeats within the run — the detector simply never
     fires and the run must still match a dense run exactly. *)
  let a = arch () in
  let u = a.Arch.uarch in
  let p = mono a ~size:8 "lbz" in
  let aper = Array.init 127 (fun i -> i * 7919 * 128) in
  let run_with period =
    (* fresh opmap per run: both runs intern the same names in the same
       order, so activities are comparable field by field *)
    let opmap = Core_sim.opmap_create () in
    let dp = Core_sim.deploy ~uarch:u ~opmap ~streams:(fun _ -> aper) p in
    Core_sim.run ~uarch:u ~opmap ~warmup:1 ~measure:32 ~period [| dp |]
  in
  let hits0 = Core_sim.period_hits () in
  let dense = run_with false in
  let skip = run_with true in
  Alcotest.(check int) "no period found" hits0 (Core_sim.period_hits ());
  Alcotest.(check bool) "fallback bit-identical" true (compare dense skip = 0)

let test_period_nondyadic () =
  (* Fractional occupancies — 1.19 (lbz on the LSU), 1.3 (andi.'s LSU
     alternate), 1.43 (mulld), 2.08/0.5 (stfd on the wide store port and
     VSU) — are exact integer ticks over the uarch denominator, so these
     steady states repeat bit-for-bit too: the detector must fire for
     every kernel at every SMT level, and skipping must not change a
     single bit relative to dense. *)
  let a = arch () in
  List.iter
    (fun mnemonic ->
      let p = mono a ~size:64 mnemonic in
      List.iter
        (fun smt ->
          let name = Printf.sprintf "%s smt%d" mnemonic smt in
          let cfg = config a ~cores:1 ~smt in
          (* residual phases repeat within occ_den (=100) iterations and
             the L1 streams within their pool length; 256 measured
             iterations covers the combined period with margin *)
          let dense =
            Machine.run ~measure:256 ~period:false
              (Machine.create ~cache:false ~replay:false a.Arch.uarch)
              cfg p
          in
          let hits0 = Core_sim.period_hits () in
          let skip =
            Machine.run ~measure:256 ~period:true
              (Machine.create ~cache:false ~replay:false a.Arch.uarch)
              cfg p
          in
          Alcotest.(check bool) (name ^ " period detected") true
            (Core_sim.period_hits () > hits0);
          Alcotest.(check bool) (name ^ " bit-identical") true
            (compare dense skip = 0))
        [ 1; 2; 4 ])
    [ "lbz"; "andi."; "mulld"; "stfd" ]

let test_period_training_suite () =
  (* the acceptance bar: dense and skipped runs agree on every program
     of the (quick) Table-2 training suite *)
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let fams = Mp_workloads.Training.table2 ~machine ~arch:a ~quick:true () in
  let progs =
    List.map
      (fun (e : Mp_workloads.Training.entry) -> e.Mp_workloads.Training.program)
      (Mp_workloads.Training.all_entries fams)
  in
  Alcotest.(check bool) "suite non-empty" true (List.length progs > 20);
  let cfg = config a ~cores:8 ~smt:2 in
  let dense_m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  let skip_m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  List.iteri
    (fun i p ->
      let dense = Machine.run ~measure:12 ~period:false dense_m cfg p in
      let skip = Machine.run ~measure:12 ~period:true skip_m cfg p in
      Alcotest.(check bool)
        (Printf.sprintf "suite entry %d (%s) bit-identical" i
           p.Mp_codegen.Ir.name)
        true
        (compare dense skip = 0))
    progs

(* ----- steady-state replay -------------------------------------------------- *)

(* Replay serves later measurements of the same structural program from
   a captured period record; every served activity must be bit-identical
   to dense simulation. The tests run against the process-global table
   (the one Machine.create attaches), so hit/miss assertions are
   delta-based. *)

let replay_dense ?(cores = 1) ?(smt = 1) ?measure a p =
  Machine.run ?measure
    (Machine.create ~cache:false ~replay:false a.Arch.uarch)
    (config a ~cores ~smt) p

let test_replay_bit_identity () =
  (* compute kernels across SMT levels, including the non-dyadic mulld
     (occupancy 1.43) whose steady state only repeats every second
     iteration: a second run on the same machine and a run on a fresh
     machine must both be served from the table, bit-identical *)
  let a = arch () in
  List.iter
    (fun (mnemonic, dep) ->
      let p = mono a ~dep mnemonic in
      List.iter
        (fun smt ->
          let name = Printf.sprintf "%s smt%d" mnemonic smt in
          let dense = replay_dense ~smt a p in
          let m = Machine.create ~cache:false a.Arch.uarch in
          let r1 = Machine.run m (config a ~cores:1 ~smt) p in
          let hits0 = Replay.hits () in
          let r2 = Machine.run m (config a ~cores:1 ~smt) p in
          Alcotest.(check bool) (name ^ " first run = dense") true
            (compare dense r1 = 0);
          Alcotest.(check bool) (name ^ " replayed run = dense") true
            (compare dense r2 = 0);
          Alcotest.(check bool) (name ^ " second run hit the table") true
            (Replay.hits () > hits0);
          (* a fresh machine shares the process-global table *)
          let m2 = Machine.create ~cache:false a.Arch.uarch in
          let r3 = Machine.run m2 (config a ~cores:1 ~smt) p in
          Alcotest.(check bool) (name ^ " fresh machine = dense") true
            (compare dense r3 = 0))
        [ 1; 2; 4 ])
    [ ("add", Builder.No_deps); ("mulld", Builder.No_deps);
      ("fadd", Builder.Fixed 1) ]

let test_replay_memory () =
  (* memory programs consume the per-run RNG (address streams), so
     their records are salted with the machine seed: replay under each
     seed must reproduce that seed's dense run, not another's *)
  let a = arch () in
  let progs =
    [ ("lbz L1", mono a "lbz");
      ("lbz L1/L2",
       mono a
         ~mem_mix:
           [ (Mp_uarch.Cache_geometry.L1, 0.5);
             (Mp_uarch.Cache_geometry.L2, 0.5) ]
         "lbz") ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun seed ->
          let tag = Printf.sprintf "%s seed %d" name seed in
          let dense =
            Machine.run ~measure:16
              (Machine.create ~seed ~cache:false ~replay:false a.Arch.uarch)
              (config a ~cores:1 ~smt:2) p
          in
          let m = Machine.create ~seed ~cache:false a.Arch.uarch in
          let r1 = Machine.run ~measure:16 m (config a ~cores:1 ~smt:2) p in
          let r2 = Machine.run ~measure:16 m (config a ~cores:1 ~smt:2) p in
          Alcotest.(check bool) (tag ^ " first run = dense") true
            (compare dense r1 = 0);
          Alcotest.(check bool) (tag ^ " replayed = dense") true
            (compare dense r2 = 0))
        [ 2012; 5 ])
    progs

let test_replay_window_extrapolation () =
  (* the period step: a record captured at a narrow window serves a
     wider window by base + k*delta — the common case (default-window
     training runs vs the bootstrap's doubled window). fadd reaches a
     1-iteration steady state inside the default window; size 250
     spreads mulld's non-dyadic residual phases over a 4-iteration
     period at smt1, so from a base of 12 the window 24 is admissible
     (diff 12 = 3 periods) while 14 is not (diff 2) and must fall back
     to dense simulation — bit-identically either way. *)
  let a = arch () in
  List.iter
    (fun (name, p, base, wider, inadmissible) ->
      let m = Machine.create ~cache:false a.Arch.uarch in
      ignore (Machine.run ~measure:base m (config a ~cores:1 ~smt:1) p);
      let hits0 = Replay.hits () in
      let m2 = Machine.create ~cache:false a.Arch.uarch in
      let wide = Machine.run ~measure:wider m2 (config a ~cores:1 ~smt:1) p in
      Alcotest.(check bool) (name ^ " wider window served by replay") true
        (Replay.hits () > hits0);
      Alcotest.(check bool) (name ^ " extrapolated = dense") true
        (compare (replay_dense ~measure:wider a p) wide = 0);
      match inadmissible with
      | None -> ()
      | Some w ->
        let m3 = Machine.create ~cache:false a.Arch.uarch in
        let r = Machine.run ~measure:w m3 (config a ~cores:1 ~smt:1) p in
        Alcotest.(check bool)
          (Printf.sprintf "%s inadmissible window %d = dense" name w)
          true
          (compare (replay_dense ~measure:w a p) r = 0))
    [ ("fadd", mono a "fadd", 8, 24, None);
      ("mulld/250", mono a ~size:250 "mulld", 12, 24, Some 14) ]

let test_replay_disabled () =
  (* ~replay:false opts a machine out entirely: no lookups, no records *)
  let a = arch () in
  let p = mono a "xvmaddadp" in
  let m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  let hits0 = Replay.hits () in
  let misses0 = Replay.misses () in
  let r1 = Machine.run m (config a ~cores:1 ~smt:1) p in
  let r2 = Machine.run m (config a ~cores:1 ~smt:1) p in
  Alcotest.(check bool) "dense runs identical" true (compare r1 r2 = 0);
  Alcotest.(check int) "no hits" hits0 (Replay.hits ());
  Alcotest.(check int) "no misses" misses0 (Replay.misses ())

let test_replay_name_insensitive () =
  (* records are keyed on the name-free body hash: the same body under
     a different label is the same record. (Memory programs are the
     exception — their salt folds the name because the address-stream
     RNG is seeded from it — so this is a compute kernel.) *)
  let a = arch () in
  let build name =
    let synth = Synthesizer.create ~name a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:96);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "fmul" ]);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:13 synth
  in
  let alpha = build "alpha" and beta = build "beta" in
  Alcotest.(check bool) "struct hashes differ (name included)" true
    (Ir.struct_hash alpha <> Ir.struct_hash beta);
  Alcotest.(check bool) "body hashes agree (name-free)" true
    (Ir.body_hash alpha = Ir.body_hash beta);
  let fp = Measurement_cache.uarch_fingerprint a.Arch.uarch in
  Alcotest.(check string) "replay keys agree"
    (Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| alpha |])
    (Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| beta |]);
  (* end to end: measuring beta is served by alpha's record *)
  let m = Machine.create ~cache:false a.Arch.uarch in
  ignore (Machine.run m (config a ~cores:1 ~smt:1) alpha);
  let hits0 = Replay.hits () in
  let r_beta = Machine.run m (config a ~cores:1 ~smt:1) beta in
  Alcotest.(check bool) "beta served from alpha's record" true
    (Replay.hits () > hits0);
  Alcotest.(check bool) "beta replay = beta dense" true
    (compare (replay_dense a beta) r_beta = 0)

let prop_replay_key_one_edit =
  (* editing a single instruction anywhere in the body must change the
     replay key — the key is a digest of the full instruction stream,
     not of summary statistics *)
  let a = arch () in
  let fp = Measurement_cache.uarch_fingerprint a.Arch.uarch in
  let size = 24 in
  let build pattern =
    let synth = Synthesizer.create ~name:"edit" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size);
    Synthesizer.add_pass synth (Passes.fill_sequence pattern);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:5 synth
  in
  let add = Arch.find_instruction a "add" in
  let subf = Arch.find_instruction a "subf" in
  QCheck.Test.make ~name:"one-instruction edit changes the replay key"
    ~count:16
    QCheck.(int_range 0 (size - 1))
    (fun i ->
      let base = List.init size (fun _ -> add) in
      let edited = List.mapi (fun j x -> if j = i then subf else x) base in
      let p = build base and p' = build edited in
      Ir.body_hash p <> Ir.body_hash p'
      && Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| p |]
         <> Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| p' |])

let prop_power_monotone_in_cores =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "xvmaddadp" in
  QCheck.Test.make ~name:"power grows with enabled cores" ~count:8
    QCheck.(int_range 1 7)
    (fun n ->
      let pw k = (Machine.run machine (config a ~cores:k ~smt:1) p).Measurement.power in
      pw (n + 1) > pw n)

(* ----- run-local opcode ids and the latency-sized calendars ---------------- *)

(* Hand-built address streams, independent of the memory-model code so
   the pinned digests below move only when Core_sim does: thread
   [thread]'s stream for body index [idx] walks [lines] positions of a
   [footprint]-line region with a stride of 97 lines (coprime with the
   footprint, and never sequential, so the prefetcher stays idle). *)
let hand_streams ~thread ~footprint ~lines idx =
  Array.init lines (fun j ->
      ((thread + 1) lsl 26) + (((((idx * lines) + j) * 97) mod footprint) * 128))

(* An opmap that already holds 150 unrelated mnemonics plus [bdnz]:
   the kernels' opcodes intern after it, so their global ids are far
   from the dense run-local ids and the loop-closing branch sorts
   before them. *)
let pregrown_opmap () =
  let m = Core_sim.opmap_create () in
  for i = 0 to 149 do
    ignore (Core_sim.intern m (Printf.sprintf "pad%03d" i))
  done;
  ignore (Core_sim.intern m "bdnz");
  m

let golden_kernels a =
  let branchy =
    let synth = Synthesizer.create ~name:"golden-br" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:64);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "add" ]);
    Synthesizer.add_pass synth
      (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.2
         ~taken_ratio:0.5 ~pattern_length:4);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:31 synth
  in
  let mix =
    let synth = Synthesizer.create ~name:"golden-mix" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:48);
    Synthesizer.add_pass synth
      (Passes.fill_sequence
         (List.map (Arch.find_instruction a) [ "lbz"; "andi."; "stfd" ]));
    Synthesizer.add_pass synth (Passes.memory_model l1);
    Synthesizer.add_pass synth (Passes.dependency (Builder.Fixed 2));
    Synthesizer.synthesize ~seed:41 synth
  in
  [ ("fadd chain", mono a ~size:32 ~dep:(Builder.Fixed 1) "fadd", 64, 4);
    ("mulld", mono a ~size:32 "mulld", 64, 4);
    ("lbz/andi./stfd", mix, 64, 4);
    ("L2 loads",
     mono a ~size:32 ~mem_mix:[ (Mp_uarch.Cache_geometry.L2, 1.0) ] "lbz",
     384, 16);
    ("branchy", branchy, 64, 4) ]

let golden_run a ~smt ~period (p, footprint, lines) =
  let u = a.Arch.uarch in
  let opmap = pregrown_opmap () in
  let progs =
    Array.init smt (fun thread ->
        Core_sim.deploy ~uarch:u ~opmap
          ~streams:(hand_streams ~thread ~footprint ~lines) p)
  in
  Core_sim.run_ex ~uarch:u ~opmap ~warmup:1 ~measure:96 ~period progs

(* Digests of Marshal.to_string (activity, period_delta) [No_sharing],
   computed on the simulator as it stood before opcode ids became
   run-local and the calendars became latency-sized. Every other
   bit-identity suite compares two modes of the same build; these pin
   the result across builds, so a remap that reorders [transitions] or
   renumbers [op_issues] shows up here. *)
let golden_digests =
  [ ("fadd chain smt1 period", "b9ad9bc21b980c221c49af9ddd3eddf4");
    ("fadd chain smt1 dense", "b3add4b9b4b5c566f30deb7b3fc94a98");
    ("fadd chain smt2 period", "0bfc2c210fe1aa0dfe5986dd9c0ba7fb");
    ("fadd chain smt2 dense", "a41dfcee65b73ee8d80c8c560adafeb6");
    ("fadd chain smt4 period", "cceafd360db382d81345a38d5c464c43");
    ("fadd chain smt4 dense", "897792714d1127898d53121860313f6a");
    ("mulld smt1 period", "77a2b071fec444c0aeea1b687fd4eae3");
    ("mulld smt1 dense", "ef12e4ff9b345fbcb6929c39f3c6974f");
    ("mulld smt2 period", "360fceddf1124bd75104ae0fcac04cd5");
    ("mulld smt2 dense", "d705537773d76fefafb3eddd4ea759c4");
    ("mulld smt4 period", "9dcbc6fa2d11598791415f87ad4d31f5");
    ("mulld smt4 dense", "bfb93f7c225f54da2749aaa0bea957e8");
    ("lbz/andi./stfd smt1 period", "160cc175ba9957cc5a2c21d098c64928");
    ("lbz/andi./stfd smt1 dense", "cdeac47bf59d6d71dc96d79bbff0986e");
    ("lbz/andi./stfd smt2 period", "f3937dc628dab673f5803a38d69e4ac5");
    ("lbz/andi./stfd smt2 dense", "f3937dc628dab673f5803a38d69e4ac5");
    ("lbz/andi./stfd smt4 period", "7d6d059a779bbdac0fa87a19643905ab");
    ("lbz/andi./stfd smt4 dense", "7d6d059a779bbdac0fa87a19643905ab");
    ("L2 loads smt1 period", "4bca6710ef75bfb2cb665c6be2651507");
    ("L2 loads smt1 dense", "4bca6710ef75bfb2cb665c6be2651507");
    ("L2 loads smt2 period", "0e721acae728f734b484aa0e322b523e");
    ("L2 loads smt2 dense", "0e721acae728f734b484aa0e322b523e");
    ("L2 loads smt4 period", "f0bd4fc1181fd814d06ea839a99e36d9");
    ("L2 loads smt4 dense", "f0bd4fc1181fd814d06ea839a99e36d9");
    ("branchy smt1 period", "a3e0877f1465c0aa227cea78b1f23f5f");
    ("branchy smt1 dense", "cf1cc3d993bf7b35fc7468433b6f0555");
    ("branchy smt2 period", "528a65eb6f9d5a24f1a492e5eeca9ac1");
    ("branchy smt2 dense", "c7bd5bdd8e990a2bf97fd710e2d0b68a");
    ("branchy smt4 period", "cea29d8b34839b7d1946e9a87d059da6");
    ("branchy smt4 dense", "cea29d8b34839b7d1946e9a87d059da6") ]

let test_golden_activity () =
  let a = arch () in
  let got =
    List.concat_map
      (fun (name, p, footprint, lines) ->
        List.concat_map
          (fun smt ->
            List.map
              (fun period ->
                let r = golden_run a ~smt ~period (p, footprint, lines) in
                ( Printf.sprintf "%s smt%d %s" name smt
                    (if period then "period" else "dense"),
                  Digest.to_hex
                    (Digest.string (Marshal.to_string r [ Marshal.No_sharing ]))
                ))
              [ true; false ])
          [ 1; 2; 4 ])
      (golden_kernels a)
  in
  if got <> golden_digests then begin
    List.iter (fun (n, d) -> Printf.printf "    (%S, %S);\n" n d) got;
    Alcotest.fail "activity digests moved"
  end

let test_calendar_long_latency () =
  (* Loads whose addresses all map to set 0 of every cache level: 32
     lines cycling through one 8-way set thrash LRU, so every load
     misses to memory and costs the memory latency. A dependent chain
     pays it once per link; independent loads fill the in-flight
     window, which frees only as completions retire, so a calendar that
     retired a completion early would let dispatch run ahead. Either
     way the measured cycles are an exact linear function of the
     latency, up to 20,000 cycles, where a fixed 16,384-slot calendar
     would alias completions onto earlier cycles. *)
  let a = arch () in
  let u = a.Arch.uarch in
  let streams idx = Array.init 8 (fun j -> ((idx * 8) + j + 1) lsl 24) in
  let check name dep =
    let p =
      mono a ~size:4 ~dep ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld"
    in
    let run ~mem_latency ~period =
      let opmap = Core_sim.opmap_create () in
      let dp = Core_sim.deploy ~uarch:u ~opmap ~streams p in
      Core_sim.run_ex ~uarch:u ~opmap ~mem_latency ~warmup:1 ~measure:96
        ~period [| dp |]
    in
    let cycles lat =
      let name = Printf.sprintf "%s, latency %d" name lat in
      let hits0 = Core_sim.period_hits () in
      let dense = fst (run ~mem_latency:lat ~period:false) in
      let skip = fst (run ~mem_latency:lat ~period:true) in
      Alcotest.(check bool) (name ^ ": period detected") true
        (Core_sim.period_hits () > hits0);
      Alcotest.(check bool) (name ^ ": skip = dense") true
        (compare dense skip = 0);
      let mem = dense.Core_sim.level_loads.(3) in
      Alcotest.(check (array int)) (name ^ ": every load from memory")
        [| 0; 0; 0; mem |] dense.Core_sim.level_loads;
      (dense.Core_sim.measured_cycles, mem)
    in
    let c1, m1 = cycles 180 and c2, m2 = cycles 5_000 and c3, m3 = cycles 20_000 in
    Alcotest.(check (list int)) (name ^ ": same loads in the window")
      [ m1; m1 ] [ m2; m3 ];
    (* cycles = k * latency + b: k latency-bound rounds per window *)
    let k = (c2 - c1) / (5_000 - 180) in
    Alcotest.(check int) (name ^ ": cycles linear in the latency")
      (c1 + (k * (20_000 - 180))) c3;
    Alcotest.(check int) (name ^ ": exact slope") (c1 + (k * (5_000 - 180))) c2;
    k, m1
  in
  let links, loads = check "chain" (Builder.Fixed 1) in
  Alcotest.(check int) "one latency per chain link" loads links;
  let rounds, loads = check "independent" Builder.No_deps in
  (* independent loads overlap: one latency per window-full of loads *)
  Alcotest.(check int) "one latency per in-flight window"
    (loads / u.Mp_uarch.Uarch_def.window) rounds

let prop_local_ids_invisible =
  (* the same program on a fresh opmap and on one pre-grown with the
     whole ISA in shuffled order: the per-opcode counts must agree name
     for name, and [transitions] must come out strictly ascending in
     (prev, next) on both, whatever the global ids are *)
  let a = arch () in
  let u = a.Arch.uarch in
  let candidates =
    Array.of_list
      (Arch.select a (fun i ->
           (not i.Mp_isa.Instruction.privileged)
           && (not (Mp_isa.Instruction.is_branch i))
           && not i.Mp_isa.Instruction.prefetch))
  in
  let all_names =
    "bdnz"
    :: List.map
         (fun i -> i.Mp_isa.Instruction.mnemonic)
         (Arch.select a (fun _ -> true))
  in
  let named m (act : Core_sim.activity) =
    let issues = ref [] in
    Array.iteri
      (fun id n ->
        if n > 0 then issues := (Core_sim.opmap_name m id, n) :: !issues)
      act.Core_sim.op_issues;
    ( List.sort compare !issues,
      List.sort compare
        (List.map
           (fun (p, n, c) ->
             (Core_sim.opmap_name m p, Core_sim.opmap_name m n, c))
           act.Core_sim.transitions) )
  in
  let rec ascending = function
    | (p, n, _) :: ((p', n', _) :: _ as rest) ->
      compare (p, n) (p', n') < 0 && ascending rest
    | _ -> true
  in
  QCheck.Test.make ~name:"local opcode ids invisible" ~count:25
    QCheck.(triple small_int (int_range 1 6) (int_range 1 2))
    (fun (seed, picks, smt) ->
      let g = Mp_util.Rng.create seed in
      let seq = List.init picks (fun _ -> Mp_util.Rng.choose g candidates) in
      let synth = Synthesizer.create ~name:"remap" a in
      Synthesizer.add_pass synth (Passes.skeleton ~size:24);
      Synthesizer.add_pass synth (Passes.fill_sequence seq);
      if List.exists Mp_isa.Instruction.is_memory seq then
        Synthesizer.add_pass synth (Passes.memory_model l1);
      Synthesizer.add_pass synth
        (Passes.dependency (Builder.Random_range (1, 4)));
      let p = Synthesizer.synthesize ~seed synth in
      let run opmap =
        let progs =
          Array.init smt (fun thread ->
              Core_sim.deploy ~uarch:u ~opmap
                ~streams:(hand_streams ~thread ~footprint:64 ~lines:4) p)
        in
        Core_sim.run ~uarch:u ~opmap ~measure:8 progs
      in
      let fresh = Core_sim.opmap_create () in
      let grown = Core_sim.opmap_create () in
      List.iter
        (fun n -> ignore (Core_sim.intern grown n))
        (Mp_util.Rng.shuffle g all_names);
      let r1 = run fresh and r2 = run grown in
      named fresh r1 = named grown r2
      && r1.Core_sim.threads = r2.Core_sim.threads
      && r1.Core_sim.measured_cycles = r2.Core_sim.measured_cycles
      && ascending r1.Core_sim.transitions
      && ascending r2.Core_sim.transitions)

let () =
  match Sys.argv with
  | [| _; "--disk-log-child"; mode; dir |] -> disk_log_child mode dir
  | _ -> ()

let () =
  Alcotest.run "mp_sim"
    [
      ("cache",
       [ Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
         Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
         Alcotest.test_case "counters" `Quick test_cache_counters;
         Alcotest.test_case "prefetcher" `Quick test_prefetcher_detects_streams ]);
      ("ipc",
       [ Alcotest.test_case "simple int" `Quick test_ipc_simple_int;
         Alcotest.test_case "fxu" `Quick test_ipc_fxu;
         Alcotest.test_case "mul" `Quick test_ipc_mul;
         Alcotest.test_case "load" `Quick test_ipc_load;
         Alcotest.test_case "load update" `Quick test_ipc_load_update;
         Alcotest.test_case "vsu" `Quick test_ipc_vsu;
         Alcotest.test_case "vector store" `Quick test_ipc_vec_store;
         Alcotest.test_case "chain limit" `Quick test_dependency_chain_limits_ipc;
         Alcotest.test_case "distance ILP" `Quick test_dependency_distance_parallelism;
         Alcotest.test_case "smt throughput" `Quick test_smt_increases_core_throughput;
         Alcotest.test_case "smt latency hiding" `Quick test_smt_helps_latency_bound;
         Alcotest.test_case "memory latency" `Quick test_memory_latency_lowers_ipc ]);
      ("measurement",
       [ Alcotest.test_case "counters consistent" `Quick test_counters_consistent;
         Alcotest.test_case "memory counters" `Quick test_memory_counters;
         Alcotest.test_case "pmc read" `Quick test_pmc_read_interface;
         Alcotest.test_case "determinism" `Quick test_measurement_determinism;
         Alcotest.test_case "power orderings" `Quick test_power_orderings;
         Alcotest.test_case "power vs cores" `Quick test_power_scales_with_cores;
         Alcotest.test_case "smt overhead" `Quick test_smt_power_overhead;
         Alcotest.test_case "zero data" `Quick test_zero_data_reduces_power;
         Alcotest.test_case "bandwidth contention" `Quick test_bandwidth_contention;
         Alcotest.test_case "phases" `Quick test_run_phases;
         Alcotest.test_case "phases validation" `Quick test_phases_validation;
         Alcotest.test_case "hetero validation" `Quick test_heterogeneous_validation;
         Alcotest.test_case "hetero mix" `Quick test_heterogeneous_mix;
         Alcotest.test_case "hetero determinism" `Quick test_heterogeneous_determinism;
         Alcotest.test_case "smt fairness" `Quick test_smt_fairness;
         Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
         Alcotest.test_case "power trace" `Quick test_power_trace_properties;
         Alcotest.test_case "total threads" `Quick test_total_threads;
         Alcotest.test_case "sensor seeds" `Quick test_seed_changes_sensor;
         Alcotest.test_case "seed-independent kernels" `Quick
           test_seed_independent_identical;
         QCheck_alcotest.to_alcotest prop_power_monotone_in_cores ]);
      ("batch",
       [ Alcotest.test_case "hetero batch = serial" `Quick
           test_hetero_batch_matches_serial;
         Alcotest.test_case "multi-process = serial" `Quick
           test_procs_batch_matches_serial ]);
      ("period skipping",
       [ Alcotest.test_case "detects and skips" `Quick test_period_detects_and_skips;
         Alcotest.test_case "compute kernels" `Quick test_period_equiv_compute;
         Alcotest.test_case "warmup/measure windows" `Quick test_period_equiv_windows;
         Alcotest.test_case "branch patterns" `Quick test_period_equiv_branches;
         Alcotest.test_case "memory streams" `Quick test_period_equiv_memory;
         Alcotest.test_case "heterogeneous" `Quick test_period_equiv_heterogeneous;
         Alcotest.test_case "aperiodic fallback" `Quick test_period_aperiodic_fallback;
         Alcotest.test_case "non-dyadic kernels" `Quick test_period_nondyadic;
         Alcotest.test_case "training suite" `Slow test_period_training_suite ]);
      ("replay",
       [ Alcotest.test_case "bit-identity across SMT" `Quick
           test_replay_bit_identity;
         Alcotest.test_case "memory programs and seeds" `Quick
           test_replay_memory;
         Alcotest.test_case "window extrapolation" `Quick
           test_replay_window_extrapolation;
         Alcotest.test_case "replay disabled" `Quick test_replay_disabled;
         Alcotest.test_case "name-insensitive keys" `Quick
           test_replay_name_insensitive;
         QCheck_alcotest.to_alcotest prop_replay_key_one_edit ]);
      ("step loop",
       [ Alcotest.test_case "golden activity digests" `Quick
           test_golden_activity;
         Alcotest.test_case "calendar beyond 16k cycles" `Quick
           test_calendar_long_latency;
         QCheck_alcotest.to_alcotest prop_local_ids_invisible ]);
      ("disk cache",
       [ Alcotest.test_case "round trip" `Quick test_disk_cache_roundtrip;
         Alcotest.test_case "shared across seeds" `Quick
           test_disk_cache_shared_across_seeds;
         Alcotest.test_case "corrupt entries skipped" `Quick
           test_disk_cache_corrupt_skipped;
         Alcotest.test_case "concurrent writers" `Quick
           test_disk_cache_concurrent_writers;
         Alcotest.test_case "failed append keeps the log" `Quick
           test_log_failed_append;
         Alcotest.test_case "replay store concurrent writers" `Quick
           test_replay_store_concurrent_writers;
         Alcotest.test_case "single flight" `Quick test_single_flight;
         Alcotest.test_case "gc size bound" `Quick test_cache_gc;
         Alcotest.test_case "MP_CACHE_MAX_MB" `Quick test_cache_gc_env;
         Alcotest.test_case "segment layout" `Quick
           test_disk_cache_segment_layout;
         Alcotest.test_case "torn tail" `Quick test_log_torn_tail;
         Alcotest.test_case "flipped payload byte" `Quick
           test_log_flipped_payload_byte;
         QCheck_alcotest.to_alcotest prop_log_damage;
         Alcotest.test_case "entry from another process" `Quick
           test_log_cross_process;
         Alcotest.test_case "replay store housekeeping" `Quick
           test_replay_store_housekeeping ]);
      ("structural keys",
       [ Alcotest.test_case "equivalence classes" `Quick
           test_key_equivalence_classes;
         Alcotest.test_case "precomputed hash consistent" `Quick
           test_struct_hash_precomputed ]);
      ("batch dedup",
       [ Alcotest.test_case "scatter bit-identical" `Quick
           test_batch_dedup_scatter;
         Alcotest.test_case "hetero scatter bit-identical" `Quick
           test_hetero_batch_dedup_scatter ]);
    ]
