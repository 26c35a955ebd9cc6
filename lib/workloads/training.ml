open Mp_codegen
open Mp_isa
open Mp_uarch.Cache_geometry

type entry = {
  program : Ir.t;
  target_ipc : float option;
  achieved_ipc : float;
}

type family = {
  family_name : string;
  units : string;
  description : string;
  entries : entry list;
}

let smt1_config arch =
  Mp_uarch.Uarch_def.config ~cores:1 ~smt:1 arch.Arch.uarch

(* Every generator measures whole populations at once: one
   [Machine.run_batch] fans the programs out over the domain pool, and
   its results are bit-identical to measuring them one at a time. *)
let measure_ipcs ~machine ~arch programs =
  let config = smt1_config arch in
  Mp_sim.Machine.run_batch machine (List.map (fun p -> (config, p)) programs)
  |> List.map (fun m -> m.Mp_sim.Measurement.core_ipc)

let measured ~machine ~arch ~target_ipc programs =
  List.map2
    (fun program achieved_ipc -> { program; target_ipc; achieved_ipc })
    programs
    (measure_ipcs ~machine ~arch programs)

(* ----- GA-driven IPC targeting ----------------------------------------- *)

type genome = { weights : float array; dep : int }

let dep_modes =
  [| Builder.No_deps; Builder.Fixed 1; Builder.Fixed 2; Builder.Fixed 3;
     Builder.Fixed 4; Builder.Fixed 6; Builder.Fixed 8;
     Builder.Random_range (1, 6) |]

let genome_program ~arch ~name ~size ~candidates g =
  let weighted =
    List.mapi (fun i ins -> (ins, 0.02 +. g.weights.(i))) candidates
  in
  let synth = Synthesizer.create ~name arch in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_weighted weighted);
  if List.exists (fun i -> Instruction.is_memory i) candidates then
    Synthesizer.add_pass synth (Passes.memory_model [ (L1, 1.0) ]);
  Synthesizer.add_pass synth (Passes.dependency dep_modes.(g.dep));
  Synthesizer.add_pass synth (Passes.init_registers Builder.Random_values);
  Synthesizer.add_pass synth (Passes.rename name);
  Synthesizer.synthesize ~seed:(Hashtbl.hash name) synth

let ipc_family ~machine ~arch ~name ~units ~description ~candidates ~targets
    ?(size = 512) ?(population = 10) ?(generations = 5) () =
  if candidates = [] then invalid_arg "Training.ipc_family: no candidates";
  let n = List.length candidates in
  let ops =
    {
      Mp_dse.Genetic.init =
        (fun rng ->
          { weights = Array.init n (fun _ -> Mp_util.Rng.float rng 1.0);
            dep = Mp_util.Rng.int rng (Array.length dep_modes) });
      mutate =
        (fun rng g ->
          if Mp_util.Rng.bool rng then
            { g with dep = Mp_util.Rng.int rng (Array.length dep_modes) }
          else begin
            let w = Array.copy g.weights in
            let i = Mp_util.Rng.int rng n in
            w.(i) <- Mp_util.Rng.float rng 1.0;
            { g with weights = w }
          end);
      crossover =
        (fun rng a b ->
          {
            weights =
              Array.init n (fun i ->
                  if Mp_util.Rng.bool rng then a.weights.(i) else b.weights.(i));
            dep = (if Mp_util.Rng.bool rng then a.dep else b.dep);
          });
    }
  in
  let entries =
    List.map
      (fun target ->
        let bench_name = Printf.sprintf "%s-ipc%.1f" name target in
        let program g =
          genome_program ~arch ~name:bench_name ~size ~candidates g
        in
        let eval_batch gs =
          measure_ipcs ~machine ~arch (List.map program gs)
          |> List.map (fun ipc -> -.Float.abs (ipc -. target))
        in
        let eval g = List.hd (eval_batch [ g ]) in
        let rng = Mp_util.Rng.create (Hashtbl.hash bench_name) in
        (* seed one uniform-mix genome per dependency mode so that
           chain-limited low-IPC regions are always reachable *)
        let seeds =
          List.init (Array.length dep_modes) (fun d ->
              { weights = Array.make n 0.5; dep = d })
        in
        let result =
          Mp_dse.Genetic.search ~rng ~ops ~eval ~eval_batch ~population
            ~generations ~elite:2 ~seeds ()
        in
        let best = program result.Mp_dse.Driver.best.Mp_dse.Driver.point in
        List.hd (measured ~machine ~arch ~target_ipc:(Some target) [ best ]))
      targets
  in
  { family_name = name; units; description; entries }

(* ----- memory families -------------------------------------------------- *)

let load_candidates arch =
  Arch.select arch (fun i ->
      Instruction.is_load i && (not i.Instruction.prefetch)
      && not i.Instruction.update)

let store_candidates arch =
  Arch.select arch (fun i -> Instruction.is_store i && not i.Instruction.update)

let memory_family ~machine ~arch ~name ~description ~loads_only ~distribution
    ~count ?(size = 512) () =
  let candidates =
    if loads_only then load_candidates arch
    else load_candidates arch @ store_candidates arch
  in
  let programs =
    List.init count (fun k ->
        let bench_name = Printf.sprintf "%s-%d" name k in
        let synth = Synthesizer.create ~name:bench_name arch in
        Synthesizer.add_pass synth (Passes.skeleton ~size);
        Synthesizer.add_pass synth (Passes.fill_uniform candidates);
        Synthesizer.add_pass synth (Passes.memory_model distribution);
        Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
        Synthesizer.add_pass synth (Passes.init_registers Builder.Random_values);
        Synthesizer.add_pass synth (Passes.rename bench_name);
        Synthesizer.synthesize ~seed:(Hashtbl.hash bench_name) synth)
  in
  { family_name = name; units = "LSU + caches"; description;
    entries = measured ~machine ~arch ~target_ipc:None programs }

(* ----- random family ----------------------------------------------------- *)

let usable arch =
  Arch.select arch (fun i ->
      (not i.Instruction.privileged)
      && (not (Instruction.is_branch i))
      && not i.Instruction.prefetch)

let random_distribution rng =
  let w () = Mp_util.Rng.float rng 1.0 in
  [ (L1, 0.25 +. w ()); (L2, w ()); (L3, w ()); (MEM, w () /. 2.0) ]

let random_family ~machine ~arch ~count ?(size = 512) () =
  let candidates = Array.of_list (usable arch) in
  let loads = Array.of_list (load_candidates arch) in
  let stores = Array.of_list (store_candidates arch) in
  let programs =
    List.init count (fun k ->
        let bench_name = Printf.sprintf "random-%d" k in
        let rng = Mp_util.Rng.create (Hashtbl.hash bench_name) in
        (* a random subset of the ISA with random weights; like any
           random slice of real code, it always touches memory and
           carries register dependencies — so the family does NOT cover
           extreme single-flavour activities (this is what dooms
           workload-trained top-down models on the paper's Figure 7) *)
        let picks = 3 + Mp_util.Rng.int rng 12 in
        let weighted =
          (Mp_util.Rng.choose rng loads, 0.1 +. Mp_util.Rng.float rng 0.5)
          :: (Mp_util.Rng.choose rng stores, 0.05 +. Mp_util.Rng.float rng 0.25)
          :: List.init picks (fun _ ->
                 (Mp_util.Rng.choose rng candidates,
                  0.05 +. Mp_util.Rng.float rng 1.0))
        in
        let synth = Synthesizer.create ~name:bench_name arch in
        Synthesizer.add_pass synth (Passes.skeleton ~size);
        Synthesizer.add_pass synth (Passes.fill_weighted weighted);
        Synthesizer.add_pass synth (Passes.memory_model (random_distribution rng));
        Synthesizer.add_pass synth
          (Passes.dependency
             (Builder.Random_range (1, 2 + Mp_util.Rng.int rng 7)));
        Synthesizer.add_pass synth (Passes.init_registers Builder.Random_values);
        Synthesizer.add_pass synth (Passes.rename bench_name);
        Synthesizer.synthesize ~seed:(Hashtbl.hash bench_name) synth)
  in
  { family_name = "Random"; units = "Unknown";
    description = "Random micro-benchmarks";
    entries = measured ~machine ~arch ~target_ipc:None programs }

(* ----- the Table 2 suite ------------------------------------------------- *)

let frange lo hi step =
  let n = int_of_float (Float.round (((hi -. lo) /. step) +. 1.0)) in
  List.init n (fun i -> lo +. (float_of_int i *. step))

let every_nth n l = List.filteri (fun i _ -> i mod n = 0) l

let table2 ~machine ~arch ?(quick = false) () =
  let select pred = Arch.select arch pred in
  let simple_ints =
    select (fun i -> i.Instruction.exec_class = Instruction.Simple_int)
  in
  let complex_ints =
    select (fun i ->
        match i.Instruction.exec_class with
        | Instruction.Complex_int | Instruction.Mul_int | Instruction.Div_int ->
          true
        | _ -> false)
  in
  let vsu_ops =
    select (fun i ->
        (not (Instruction.is_memory i))
        && Mp_uarch.Uarch_def.stresses arch.Arch.uarch i Mp_uarch.Pipe.VSU)
  in
  let non_mem_non_branch =
    select (fun i ->
        (not (Instruction.is_memory i))
        && (not (Instruction.is_branch i))
        && i.Instruction.exec_class <> Instruction.Nop_op)
  in
  let thin targets = if quick then every_nth 4 targets else targets in
  let cnt n = if quick then max 2 (n / 4) else n in
  let ipc name units desc candidates targets =
    ipc_family ~machine ~arch ~name ~units ~description:desc ~candidates
      ~targets:(thin targets)
      ~population:(if quick then 6 else 10)
      ~generations:(if quick then 3 else 5)
      ()
  in
  let memf name desc ~loads_only distribution n =
    memory_family ~machine ~arch ~name ~description:desc ~loads_only
      ~distribution ~count:(cnt n) ()
  in
  [
    ipc "Simple Integer" "FXU or LSU"
      "Mix of simple integer instructions (LSU- or FXU-executable)"
      simple_ints (frange 0.5 3.9 0.1);
    ipc "Complex Integer" "FXU"
      "Mix of complex integer instructions (FXU only)" complex_ints
      (frange 0.1 1.1 0.1);
    ipc "Integer" "FXU, LSU" "Mix of integer instructions"
      (simple_ints @ complex_ints)
      (frange 0.1 1.2 0.1);
    ipc "Float/Vector" "VSU"
      "Mix of vector, float and decimal instructions" vsu_ops
      (frange 0.1 1.4 0.1);
    ipc "Unit Mix" "VSU, FXU, LSU"
      "Mix of all kinds of instructions (no memory, no branch)"
      non_mem_non_branch (frange 0.1 2.0 0.1);
    memf "L1 ld" "Random mix of load instructions hitting the L1"
      ~loads_only:true [ (L1, 1.0) ] 10;
    memf "L1 ld/st" "Random mix of load/store instructions hitting the L1"
      ~loads_only:false [ (L1, 1.0) ] 10;
    memf "L1L2a" "75% L1 / 25% L2" ~loads_only:false [ (L1, 0.75); (L2, 0.25) ] 10;
    memf "L1L2b" "50% L1 / 50% L2" ~loads_only:false [ (L1, 0.5); (L2, 0.5) ] 10;
    memf "L1L2c" "25% L1 / 75% L2" ~loads_only:false [ (L1, 0.25); (L2, 0.75) ] 10;
    memf "L1L3a" "75% L1 / 25% L3" ~loads_only:false [ (L1, 0.75); (L3, 0.25) ] 10;
    memf "L1L3b" "50% L1 / 50% L3" ~loads_only:false [ (L1, 0.5); (L3, 0.5) ] 10;
    memf "L1L3c" "25% L1 / 75% L3" ~loads_only:false [ (L1, 0.25); (L3, 0.75) ] 10;
    memf "L2" "Random mix of load/store instructions hitting the L2"
      ~loads_only:false [ (L2, 1.0) ] 10;
    memf "L2L3a" "75% L2 / 25% L3" ~loads_only:false [ (L2, 0.75); (L3, 0.25) ] 10;
    memf "L2L3b" "50% L2 / 50% L3" ~loads_only:false [ (L2, 0.5); (L3, 0.5) ] 10;
    memf "L2L3c" "25% L2 / 75% L3" ~loads_only:false [ (L2, 0.25); (L3, 0.75) ] 10;
    memf "L3" "Random mix of load/store instructions hitting the L3"
      ~loads_only:false [ (L3, 1.0) ] 10;
    memf "Caches" "33% L1 / 33% L2 / 34% L3" ~loads_only:false
      [ (L1, 0.33); (L2, 0.33); (L3, 0.34) ] 10;
    memf "Memory" "Random mix of load/store instructions missing all caches"
      ~loads_only:false [ (MEM, 1.0) ] 20;
    random_family ~machine ~arch ~count:(cnt 331) ();
  ]

let all_entries families = List.concat_map (fun f -> f.entries) families
