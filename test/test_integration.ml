(* Integration tests: the three case studies exercised end-to-end
   through the public facade, at reduced scale. These assert the
   paper's qualitative results, not absolute numbers. *)

open Microprobe

let arch () = get_architecture "POWER7"

let test_facade () =
  Alcotest.(check (list string)) "registry" [ "POWER7" ] (architectures ());
  Alcotest.check_raises "unknown arch" Not_found (fun () ->
      ignore (get_architecture "Alpha21264"));
  let a = arch () in
  Alcotest.(check bool) "isa attached" true (Isa_def.size a.Arch.isa > 100)

(* The paper's Figure 2 script, verbatim structure. *)
let test_figure2_script () =
  let a = arch () in
  let synth = Synthesizer.create ~name:"fig2" a in
  (* Pass 1: program skeleton *)
  Synthesizer.add_pass synth (Passes.skeleton ~size:4096);
  (* Pass 2: loads stressing the VSU *)
  let loads = Arch.select a Instruction.is_load in
  let loads_vsu =
    List.filter (fun i -> Uarch_def.stresses a.Arch.uarch i Pipe.VSU) loads
  in
  (* vector loads stress only the LSU on POWER7; take VSR-file loads *)
  let loads_vsu =
    if loads_vsu = [] then List.filter Instruction.is_vector loads else loads_vsu
  in
  Alcotest.(check bool) "vector loads found" true (loads_vsu <> []);
  Synthesizer.add_pass synth (Passes.fill_uniform loads_vsu);
  (* Pass 3: equal activity in the three cache levels *)
  Synthesizer.add_pass synth
    (Passes.memory_model
       [ (Cache_geometry.L1, 0.33); (Cache_geometry.L2, 0.33);
         (Cache_geometry.L3, 0.34) ]);
  (* Passes 4-5: constant initialisation *)
  Synthesizer.add_pass synth (Passes.init_registers (Builder.Constant 0x5555555555555555L));
  Synthesizer.add_pass synth (Passes.init_immediates (Builder.Constant 0x55L));
  (* Pass 6: random dependency distances *)
  Synthesizer.add_pass synth (Passes.dependency (Builder.Random_range (1, 8)));
  (* generate 10 micro-benchmarks *)
  let ubenchs = Synthesizer.synthesize_many ~seed:1 synth 10 in
  Alcotest.(check int) "ten benchmarks" 10 (List.length ubenchs);
  List.iter
    (fun u ->
      Alcotest.(check bool) "valid" true (Ir.validate u = Ok ());
      Alcotest.(check int) "4K loop" 4096 (Ir.size u);
      Alcotest.(check bool) "emits" true (String.length (Emit.to_c u) > 1000))
    ubenchs;
  (* run one and confirm the memory activity *)
  let machine = Machine.create a.Arch.uarch in
  let cfg = Uarch_def.config ~cores:1 ~smt:1 a.Arch.uarch in
  let m = Machine.run machine cfg (List.hd ubenchs) in
  let c = Measurement.core_counters m in
  let total = c.Measurement.l1 +. c.Measurement.l2 +. c.Measurement.l3 +. c.Measurement.mem in
  Alcotest.(check (float 0.08)) "third L1" 0.33 (c.Measurement.l1 /. total);
  Alcotest.(check (float 0.08)) "third L2" 0.33 (c.Measurement.l2 /. total);
  Alcotest.(check (float 0.08)) "third L3" 0.34 (c.Measurement.l3 /. total)

(* Case study A at reduced scale: BU beats TD_Random on extremes. *)
let test_power_model_case_study () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let cfg ~cores ~smt = Uarch_def.config ~cores ~smt a.Arch.uarch in
  let fams = Workloads.Training.table2 ~machine ~arch:a ~quick:true () in
  let progs =
    List.map (fun (e : Workloads.Training.entry) -> e.Workloads.Training.program)
      (Workloads.Training.all_entries fams)
  in
  let random_progs =
    List.map (fun (e : Workloads.Training.entry) -> e.Workloads.Training.program)
      (List.find
         (fun (f : Workloads.Training.family) ->
           f.Workloads.Training.family_name = "Random")
         fams)
        .Workloads.Training.entries
  in
  let run c p = Machine.run machine c p in
  let smt1 = List.map (run (cfg ~cores:1 ~smt:1)) progs in
  let smt_on =
    List.map (run (cfg ~cores:1 ~smt:2)) progs
    @ List.map (run (cfg ~cores:1 ~smt:4)) progs
  in
  let multi =
    List.concat_map
      (fun cores ->
        List.concat_map
          (fun smt -> List.map (run (cfg ~cores ~smt)) random_progs)
          [ 1; 2; 4 ])
      [ 1; 2; 4; 8 ]
  in
  let bu =
    Power_model.Bottom_up.train ~baseline:(Machine.baseline_reading machine)
      ~smt1 ~smt_on ~multi ()
  in
  let td_random = Power_model.Top_down.train ~name:"TD_Random" multi in
  (* validate on the SPEC surrogate over a config subset *)
  let suite =
    List.filteri (fun i _ -> i mod 4 = 0) (Workloads.Spec.suite ~arch:a ~size:512 ())
  in
  let spec =
    List.concat_map
      (fun c -> List.map (fun b -> Workloads.Spec.run ~machine ~config:c b) suite)
      [ cfg ~cores:1 ~smt:1; cfg ~cores:4 ~smt:2; cfg ~cores:8 ~smt:4 ]
  in
  let bu_paae = Power_model.Validation.paae ~predict:(Power_model.Bottom_up.predict bu) spec in
  Alcotest.(check bool)
    (Printf.sprintf "BU PAAE on SPEC < 6%% (got %.2f)" bu_paae)
    true (bu_paae < 6.0);
  (* extreme cases: BU stays accurate, TD_Random degrades badly *)
  let extremes =
    List.map
      (fun (c : Workloads.Extreme.case) ->
        run (cfg ~cores:8 ~smt:1) c.Workloads.Extreme.program)
      (Workloads.Extreme.cases ~arch:a ~size:512 ())
  in
  let bu_ext = Power_model.Validation.paae ~predict:(Power_model.Bottom_up.predict bu) extremes in
  let td_ext = Power_model.Validation.max_error ~predict:(Power_model.Top_down.predict td_random) extremes in
  Alcotest.(check bool)
    (Printf.sprintf "TD_Random worst extreme error (%.1f) > BU average (%.1f)"
       td_ext bu_ext)
    true
    (td_ext > 2.0 *. bu_ext)

(* Case study B at reduced scale: taxonomy top picks. *)
let test_epi_case_study () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let instrs =
    List.map (Arch.find_instruction a) Power_isa.table3_mnemonics
  in
  let props = Epi.Bootstrap.run ~machine ~arch:a ~size:512 ~instructions:instrs () in
  let cats = Epi.Taxonomy.categorize ~isa:a.Arch.isa props in
  let rows = Epi.Taxonomy.table3 cats in
  (* the paper's winner in each of the eight categories *)
  let top_of label =
    List.find_opt (fun (r : Epi.Taxonomy.row) -> r.Epi.Taxonomy.category = label) rows
  in
  List.iter
    (fun (label, winner) ->
      match top_of label with
      | Some r ->
        Alcotest.(check string) (label ^ " top") winner r.Epi.Taxonomy.mnemonic
      | None -> Alcotest.fail ("no " ^ label ^ " category"))
    [ ("FXU", "mulldo"); ("LSU", "lxvw4x"); ("VSU", "xvnmsubmdp");
      ("FXU or LSU", "add"); ("LSU and FXU", "ldux");
      ("LSU and 2FXU", "lhaux"); ("LSU and VSU", "stxvw4x");
      ("LSU and VSU and FXU", "stfsux") ];
  (* large within-category spreads exist *)
  let max_spread =
    List.fold_left (fun acc c -> Float.max acc (Epi.Taxonomy.epi_spread c)) 0.0 cats
  in
  Alcotest.(check bool)
    (Printf.sprintf "spread >= 50%% somewhere (got %.0f%%)" max_spread)
    true (max_spread >= 50.0)

(* Case study C at reduced scale: the heuristic set tops SPEC's peak. *)
let test_stressmark_case_study () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let cfg smt = Uarch_def.config ~cores:8 ~smt a.Arch.uarch in
  (* SPEC peak over a hot subset *)
  let peak =
    List.fold_left
      (fun acc name ->
        let b = Workloads.Spec.benchmark ~arch:a ~size:512 name in
        List.fold_left
          (fun acc smt ->
            let m = Workloads.Spec.run ~machine ~config:(cfg smt) b in
            Float.max acc (snd (Util.Stats.min_max m.Measurement.power_trace)))
          acc [ 1; 4 ])
      0.0
      [ "gamess"; "calculix"; "leslie3d"; "hmmer" ]
  in
  (* MicroProbe candidates from a focused bootstrap *)
  let cand =
    List.map (Arch.find_instruction a)
      [ "mulldo"; "mullw"; "lxvw4x"; "lxvd2x"; "xvnmsubmdp"; "xvmaddadp" ]
  in
  let props = Epi.Bootstrap.run ~machine ~arch:a ~size:512 ~instructions:cand () in
  let picks = Stressmark.microprobe_instructions ~isa:a.Arch.isa props in
  Alcotest.(check int) "three picks" 3 (List.length picks);
  (* a cheap subset of the sequence space: rotations of the pick cycle *)
  let seqs =
    match picks with
    | [ x; y; z ] -> [ [ x; y; z; x; y; z ]; [ x; z; y; x; z; y ];
                       [ y; x; z; y; x; z ]; [ x; x; y; y; z; z ] ]
    | _ -> []
  in
  let s =
    Stressmark.evaluate_set ~machine ~arch:a ~name:"mini-mp" ~size:512
      ~smt_modes:[ 2; 4 ] seqs
  in
  Alcotest.(check bool)
    (Printf.sprintf "stressmark (%.1f) above SPEC subset peak (%.1f)"
       s.Stressmark.max_power peak)
    true
    (s.Stressmark.max_power > peak)

let () =
  Alcotest.run "integration"
    [
      ("facade", [ Alcotest.test_case "registry" `Quick test_facade ]);
      ("figure2", [ Alcotest.test_case "script" `Quick test_figure2_script ]);
      ("case studies",
       [ Alcotest.test_case "power model" `Slow test_power_model_case_study;
         Alcotest.test_case "EPI taxonomy" `Slow test_epi_case_study;
         Alcotest.test_case "stressmark" `Slow test_stressmark_case_study ]);
    ]
