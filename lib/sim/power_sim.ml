open Mp_uarch

type reading = {
  true_power : float;
  sensor_mean : float;
  trace : float array;
}

let static_power ~(table : Energy_table.t) ~(config : Uarch_def.config) =
  let n = float_of_int config.Uarch_def.cores in
  table.idle_power +. table.uncore_base
  +. (table.cmp_linear *. n)
  +. (table.cmp_quad *. n *. n)
  +. (if config.Uarch_def.smt > 1 then table.smt_overhead *. n else 0.0)

let core_dynamic ~(table : Energy_table.t) ~(activity : Core_sim.activity) =
  let cycles = float_of_int (max 1 activity.Core_sim.measured_cycles) in
  let scale = table.data_scale activity.Core_sim.daf in
  let ops = activity.Core_sim.ops in
  (* Run-local ids number the opcodes in name order, so these folds sum
     in opcode-name order: the float result depends only on the
     mnemonics and their counts, never on how a run numbered them. *)
  let opcode_energy = ref 0.0 in
  Array.iteri
    (fun i count ->
      if count > 0 then
        opcode_energy :=
          !opcode_energy +. (float_of_int count *. table.opcode_epi ops.(i)))
    activity.Core_sim.op_issues;
  let cache_energy = ref 0.0 in
  Array.iteri
    (fun lid count ->
      cache_energy :=
        !cache_energy +. (float_of_int count *. table.level_energy.(lid)))
    activity.Core_sim.level_loads;
  let stores =
    Array.fold_left
      (fun acc (c : Measurement.counters) -> acc +. c.Measurement.st)
      0.0 activity.Core_sim.threads
  in
  let dispatched =
    Array.fold_left
      (fun acc (c : Measurement.counters) -> acc +. c.Measurement.dispatched)
      0.0 activity.Core_sim.threads
  in
  let transition_energy =
    List.fold_left
      (fun acc (a, b, count) ->
        acc +. (float_of_int count *. table.transition_energy ops.(a) ops.(b)))
      0.0 activity.Core_sim.transitions
  in
  ((!opcode_energy *. scale)
   +. !cache_energy
   +. (stores *. table.store_energy)
   +. (dispatched *. table.dispatch_energy)
   +. transition_energy)
  /. cycles

let chip_power ~table ~config ~activity =
  let dyn_core = core_dynamic ~table ~activity in
  let chip_dyn = dyn_core *. float_of_int config.Uarch_def.cores in
  static_power ~table ~config +. table.saturate chip_dyn

let idle_power ~table ~config = static_power ~table ~config

let sample ~table ~rng ?(windows = 24) ~config ~activity () =
  let p = chip_power ~table ~config ~activity in
  let trace =
    Array.init windows (fun _ ->
        let rel = Mp_util.Rng.gaussian rng ~mu:1.0 ~sigma:table.noise_rel in
        let abs = Mp_util.Rng.gaussian rng ~mu:0.0 ~sigma:table.noise_abs in
        Float.max 0.0 ((p *. rel) +. abs))
  in
  { true_power = p; sensor_mean = Mp_util.Stats.mean trace; trace }
