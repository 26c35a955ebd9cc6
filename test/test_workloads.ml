(* Tests for mp_workloads: profiles, the SPEC surrogate suite, extreme
   cases, DAXPY and the Table-2 training suite. *)

open Mp_codegen
open Mp_uarch

let arch () = Arch.power7 ()

(* ----- profiles --------------------------------------------------------------- *)

let test_profile_program_valid () =
  let a = arch () in
  let p =
    Mp_workloads.Profile.program ~arch:a ~name:"prof" ~seed:1 ~size:256
      Mp_workloads.Profile.balanced
  in
  Alcotest.(check bool) "valid" true (Ir.validate p = Ok ());
  Alcotest.(check int) "size" 256 (Ir.size p);
  Alcotest.(check bool) "has memory model" true (p.Ir.memory_distribution <> None)

let test_profile_determinism () =
  let a = arch () in
  let gen () =
    Mp_workloads.Profile.program ~arch:a ~name:"prof" ~seed:5 ~size:128
      Mp_workloads.Profile.balanced
  in
  Alcotest.(check bool) "same seed, same program" true (gen () = gen ())

let test_profile_perturb_preserves_shape () =
  let rng = Mp_util.Rng.create 2 in
  let p = Mp_workloads.Profile.perturb rng ~strength:0.3 Mp_workloads.Profile.balanced in
  Alcotest.(check bool) "weights stay non-negative" true
    (p.Mp_workloads.Profile.simple_int >= 0.0 && p.Mp_workloads.Profile.load >= 0.0);
  Alcotest.(check bool) "mem mix positive" true
    (List.for_all (fun (_, w) -> w > 0.0) p.Mp_workloads.Profile.mem_mix)

let test_profile_zero_weights_rejected () =
  let a = arch () in
  let z =
    { Mp_workloads.Profile.balanced with
      Mp_workloads.Profile.simple_int = 0.0; complex_int = 0.0; mul = 0.0;
      fp = 0.0; vec = 0.0; load = 0.0; store = 0.0 }
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Mp_workloads.Profile.program ~arch:a ~name:"z" ~seed:1 z);
       false
     with Invalid_argument _ -> true)

(* ----- SPEC surrogate ------------------------------------------------------------ *)

let test_spec_names () =
  Alcotest.(check int) "29 benchmarks" 29 (List.length Mp_workloads.Spec.names);
  Alcotest.(check int) "unique names" 29
    (List.length (List.sort_uniq compare Mp_workloads.Spec.names))

let test_spec_generation () =
  let a = arch () in
  let suite = Mp_workloads.Spec.suite ~arch:a ~size:128 () in
  Alcotest.(check int) "29 surrogates" 29 (List.length suite);
  List.iter
    (fun (b : Mp_workloads.Spec.benchmark) ->
      Alcotest.(check bool) (b.Mp_workloads.Spec.name ^ " has phases") true
        (List.length b.Mp_workloads.Spec.phases >= 2);
      List.iter
        (fun (p, w) ->
          Alcotest.(check bool) "valid phase" true (Ir.validate p = Ok ());
          Alcotest.(check bool) "positive weight" true (w > 0.0))
        b.Mp_workloads.Spec.phases)
    suite

let test_spec_cint_cfp_split () =
  let a = arch () in
  let suite = Mp_workloads.Spec.suite ~arch:a ~size:128 () in
  let ints = List.filter (fun b -> b.Mp_workloads.Spec.integer) suite in
  Alcotest.(check int) "12 CINT" 12 (List.length ints)

let test_spec_deterministic () =
  let a = arch () in
  let b1 = Mp_workloads.Spec.benchmark ~arch:a ~size:128 "mcf" in
  let b2 = Mp_workloads.Spec.benchmark ~arch:a ~size:128 "mcf" in
  Alcotest.(check bool) "deterministic" true
    (List.map fst b1.Mp_workloads.Spec.phases = List.map fst b2.Mp_workloads.Spec.phases)

let test_spec_unknown () =
  let a = arch () in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Mp_workloads.Spec.benchmark ~arch:a "doom3"))

let test_spec_profiles_differ () =
  let a = arch () in
  let mcf = Mp_workloads.Spec.benchmark ~arch:a ~size:256 "mcf" in
  let hmmer = Mp_workloads.Spec.benchmark ~arch:a ~size:256 "hmmer" in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let cfg = Uarch_def.config ~cores:1 ~smt:1 a.Arch.uarch in
  let m_mcf = Mp_workloads.Spec.run ~machine ~config:cfg mcf in
  let m_hmmer = Mp_workloads.Spec.run ~machine ~config:cfg hmmer in
  (* mcf is memory bound, hmmer is L1-resident high-IPC integer *)
  Alcotest.(check bool) "mcf slower" true
    (m_mcf.Mp_sim.Measurement.core_ipc < m_hmmer.Mp_sim.Measurement.core_ipc /. 2.0);
  let mem_rate (m : Mp_sim.Measurement.t) =
    let c = Mp_sim.Measurement.core_counters m in
    c.Mp_sim.Measurement.mem /. Float.max 1.0 c.Mp_sim.Measurement.instrs
  in
  Alcotest.(check bool) "mcf touches memory more" true
    (mem_rate m_mcf > 4.0 *. mem_rate m_hmmer)

(* ----- extremes & daxpy ------------------------------------------------------------ *)

let test_extreme_cases () =
  let a = arch () in
  let cases = Mp_workloads.Extreme.cases ~arch:a ~size:128 () in
  Alcotest.(check int) "six cases" 6 (List.length cases);
  let names = List.map (fun c -> c.Mp_workloads.Extreme.name) cases in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "FXU High"; "FXU Low"; "VSU High"; "VSU Low"; "L1 ld"; "MEM" ];
  List.iter
    (fun c ->
      Alcotest.(check bool) "valid" true
        (Ir.validate c.Mp_workloads.Extreme.program = Ok ()))
    cases

let test_extreme_activity_contrast () =
  let a = arch () in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let cfg = Uarch_def.config ~cores:1 ~smt:1 a.Arch.uarch in
  let cases = Mp_workloads.Extreme.cases ~arch:a ~size:256 () in
  let run name =
    let c = List.find (fun c -> c.Mp_workloads.Extreme.name = name) cases in
    Mp_sim.Machine.run machine cfg c.Mp_workloads.Extreme.program
  in
  let hi = run "FXU High" and lo = run "FXU Low" in
  Alcotest.(check bool) "FXU high IPC >> low" true
    (hi.Mp_sim.Measurement.core_ipc > 4.0 *. lo.Mp_sim.Measurement.core_ipc)

let test_daxpy () =
  let a = arch () in
  let ks = Mp_workloads.Daxpy.variants ~arch:a ~size:128 () in
  Alcotest.(check int) "four variants" 4 (List.length ks);
  let k = Mp_workloads.Daxpy.kernel ~arch:a ~unroll:1 ~size:128 () in
  let mix = Ir.instruction_mix k in
  Alcotest.(check int) "half loads" 64 (List.assoc "lfd" mix);
  Alcotest.(check int) "quarter fmadd" 32 (List.assoc "fmadd" mix);
  Alcotest.(check int) "quarter stores" 32 (List.assoc "stfd" mix);
  (* every memory access targets the L1 *)
  List.iter
    (fun (i : Ir.instr) ->
      Alcotest.(check bool) "L1 resident" true
        (i.Ir.mem_target = Some Cache_geometry.L1))
    (Ir.memory_instructions k)

(* ----- training suite --------------------------------------------------------------- *)

let test_memory_family () =
  let a = arch () in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let fam =
    Mp_workloads.Training.memory_family ~machine ~arch:a ~name:"L2"
      ~description:"t" ~loads_only:false
      ~distribution:[ (Cache_geometry.L2, 1.0) ] ~count:3 ~size:128 ()
  in
  Alcotest.(check int) "three entries" 3
    (List.length fam.Mp_workloads.Training.entries);
  List.iter
    (fun (e : Mp_workloads.Training.entry) ->
      Alcotest.(check bool) "achieved ipc positive" true (e.achieved_ipc > 0.0);
      Alcotest.(check bool) "valid" true (Ir.validate e.program = Ok ()))
    fam.Mp_workloads.Training.entries

let test_ipc_family_ga_targets () =
  let a = arch () in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let candidates =
    Arch.select a (fun i ->
        i.Mp_isa.Instruction.exec_class = Mp_isa.Instruction.Complex_int)
  in
  let fam =
    Mp_workloads.Training.ipc_family ~machine ~arch:a ~name:"cx" ~units:"FXU"
      ~description:"t" ~candidates ~targets:[ 0.5; 1.0 ] ~size:128
      ~population:6 ~generations:3 ()
  in
  List.iter
    (fun (e : Mp_workloads.Training.entry) ->
      match e.Mp_workloads.Training.target_ipc with
      | None -> Alcotest.fail "target recorded"
      | Some t ->
        Alcotest.(check bool)
          (Printf.sprintf "GA hits IPC %.1f (got %.2f)" t e.achieved_ipc)
          true
          (Float.abs (e.achieved_ipc -. t) < 0.25))
    fam.Mp_workloads.Training.entries

(* A digest of (program name, body hash, achieved-IPC bits) over a small
   family: any change to the programs a generator emits, to the GA's
   trajectory or to the measured IPC moves it. The pinned values were
   computed on the one-program-at-a-time generators that preceded the
   batched ones, so batching is shown not to change a single bit. *)
let family_digest (fam : Mp_workloads.Training.family) =
  fam.Mp_workloads.Training.entries
  |> List.map (fun (e : Mp_workloads.Training.entry) ->
         Printf.sprintf "%s|%Lx|%Lx" e.program.Ir.name (Ir.body_hash e.program)
           (Int64.bits_of_float e.achieved_ipc))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let small_ipc_family a machine =
  let complex_ints =
    Arch.select a (fun i ->
        i.Mp_isa.Instruction.exec_class = Mp_isa.Instruction.Complex_int)
  in
  Mp_workloads.Training.ipc_family ~machine ~arch:a ~name:"pin" ~units:"FXU"
    ~description:"t" ~candidates:complex_ints ~targets:[ 0.4; 0.9 ] ~size:128
    ~population:4 ~generations:2 ()

let small_synthesized_families a machine =
  [ Mp_workloads.Training.memory_family ~machine ~arch:a ~name:"pin-mem"
      ~description:"t" ~loads_only:false
      ~distribution:[ (Cache_geometry.L1, 0.5); (Cache_geometry.L2, 0.5) ]
      ~count:3 ~size:128 ();
    Mp_workloads.Training.random_family ~machine ~arch:a ~count:4 ~size:128 () ]

let test_training_digests_pinned () =
  let a = arch () in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let digests =
    List.map family_digest
      (small_ipc_family a machine :: small_synthesized_families a machine)
  in
  List.iter2
    (fun (label, expected) got -> Alcotest.(check string) label expected got)
    [ ("ipc family", "0061d5797cfa352825dde03cc7e508c2");
      ("memory family", "5b755a5ed27fcc31e798f2d44cd7d340");
      ("random family", "a6bd373a37c2a8db8fca8f26f435ed55") ]
    digests

let test_training_ipc_matches_run () =
  (* every batched memory and random measurement equals a lone
     Machine.run on a fresh, uncached machine *)
  let a = arch () in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let fresh = Mp_sim.Machine.create ~cache:false a.Arch.uarch in
  let cfg = Uarch_def.config ~cores:1 ~smt:1 a.Arch.uarch in
  List.iter
    (fun (fam : Mp_workloads.Training.family) ->
      List.iter
        (fun (e : Mp_workloads.Training.entry) ->
          let m = Mp_sim.Machine.run fresh cfg e.program in
          Alcotest.(check bool)
            (e.program.Ir.name ^ " achieved_ipc = Machine.run")
            true
            (Int64.equal
               (Int64.bits_of_float e.achieved_ipc)
               (Int64.bits_of_float m.Mp_sim.Measurement.core_ipc)))
        fam.Mp_workloads.Training.entries)
    (small_synthesized_families a machine)

let test_table2_quick_shape () =
  let a = arch () in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let fams = Mp_workloads.Training.table2 ~machine ~arch:a ~quick:true () in
  Alcotest.(check int) "21 families" 21 (List.length fams);
  let names = List.map (fun f -> f.Mp_workloads.Training.family_name) fams in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "Simple Integer"; "Complex Integer"; "Float/Vector"; "L1 ld"; "Caches";
      "Memory"; "Random" ];
  Alcotest.(check bool) "has entries" true
    (List.length (Mp_workloads.Training.all_entries fams) > 50)

let test_gamess_hot_phase () =
  (* gamess carries the dense-FMA hot kernel that anchors the paper's
     Figure-9 normalisation *)
  let a = arch () in
  let b = Mp_workloads.Spec.benchmark ~arch:a ~size:256 "gamess" in
  let machine = Mp_sim.Machine.create a.Arch.uarch in
  let cfg = Uarch_def.config ~cores:8 ~smt:4 a.Arch.uarch in
  let m = Mp_workloads.Spec.run ~machine ~config:cfg b in
  let peak = snd (Mp_util.Stats.min_max m.Mp_sim.Measurement.power_trace) in
  Alcotest.(check bool) "peak well above mean" true
    (peak > m.Mp_sim.Measurement.power *. 1.1)

let () =
  Alcotest.run "mp_workloads"
    [
      ("profiles",
       [ Alcotest.test_case "program valid" `Quick test_profile_program_valid;
         Alcotest.test_case "determinism" `Quick test_profile_determinism;
         Alcotest.test_case "perturb" `Quick test_profile_perturb_preserves_shape;
         Alcotest.test_case "zero weights" `Quick test_profile_zero_weights_rejected ]);
      ("spec",
       [ Alcotest.test_case "names" `Quick test_spec_names;
         Alcotest.test_case "generation" `Quick test_spec_generation;
         Alcotest.test_case "cint/cfp" `Quick test_spec_cint_cfp_split;
         Alcotest.test_case "deterministic" `Quick test_spec_deterministic;
         Alcotest.test_case "unknown" `Quick test_spec_unknown;
         Alcotest.test_case "profiles differ" `Quick test_spec_profiles_differ;
         Alcotest.test_case "gamess hot phase" `Quick test_gamess_hot_phase ]);
      ("extreme/daxpy",
       [ Alcotest.test_case "extreme cases" `Quick test_extreme_cases;
         Alcotest.test_case "activity contrast" `Quick test_extreme_activity_contrast;
         Alcotest.test_case "daxpy" `Quick test_daxpy ]);
      ("training",
       [ Alcotest.test_case "memory family" `Quick test_memory_family;
         Alcotest.test_case "digests pinned" `Quick test_training_digests_pinned;
         Alcotest.test_case "achieved ipc = Machine.run" `Quick
           test_training_ipc_matches_run;
         Alcotest.test_case "GA IPC targets" `Slow test_ipc_family_ga_targets;
         Alcotest.test_case "table2 quick" `Slow test_table2_quick_shape ]);
    ]
