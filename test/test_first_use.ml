(* Process-wide values the simulator computes on first use — the
   executable digest behind [Measurement_cache.namespace] and the
   [MP_PERIOD] default behind [Core_sim.run] — must be safe to reach
   from several domains at once: a process whose first library call is
   a parallel batch has every pool domain reach them together. This
   binary holds a single test so nothing computes them before the
   domains race. *)

open Mp_codegen
open Mp_sim

let n_domains = 8

let test_first_use_race () =
  let a = Arch.power7 () in
  let synth = Synthesizer.create ~name:"first-use" a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:64);
  Synthesizer.add_pass synth
    (Passes.fill_sequence [ Arch.find_instruction a "fadd" ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  let p = Synthesizer.synthesize ~seed:5 synth in
  let uarch = a.Arch.uarch in
  (* every domain deploys first, then meets the others at a barrier
     before each first call: the library's first [namespace] calls all
     start at the same moment, and so do its first default-period
     [run] calls *)
  let barrier () =
    let arrived = Atomic.make 0 in
    fun () ->
      Atomic.incr arrived;
      while Atomic.get arrived < n_domains do
        Domain.cpu_relax ()
      done
  in
  let before_namespace = barrier () and before_run = barrier () in
  let first_calls () =
    let prog =
      Core_sim.deploy ~uarch
        ~streams:(fun _ -> invalid_arg "no memory instructions")
        p
    in
    before_namespace ();
    (* a domain that fails here must still reach the second barrier,
       or its siblings would spin forever *)
    let ns =
      match Measurement_cache.namespace () with
      | ns -> Ok ns
      | exception e -> Error e
    in
    before_run ();
    let act = Core_sim.run ~uarch ~measure:8 [| prog |] in
    (Result.fold ~ok:Fun.id ~error:raise ns, act.Core_sim.measured_cycles)
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn first_calls) in
  (* [Domain.join] re-raises whatever a domain died of *)
  let results = List.map Domain.join domains in
  let ns0, cycles0 = List.hd results in
  List.iteri
    (fun i (ns, cycles) ->
      Alcotest.(check string) (Printf.sprintf "domain %d namespace" i) ns0 ns;
      Alcotest.(check int) (Printf.sprintf "domain %d cycles" i) cycles0 cycles)
    results;
  Alcotest.(check string) "a later call sees the same namespace" ns0
    (Measurement_cache.namespace ())

let () =
  Alcotest.run "mp_first_use"
    [
      ("first use",
       [ Alcotest.test_case "8 domains race the first namespace and run"
           `Quick test_first_use_race ]);
    ]
