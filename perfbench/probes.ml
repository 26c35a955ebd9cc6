(* Layer probes of a traced run, taken outside every timed phase: the
   simulator on a fixed sample of the workload's jobs (dense and with
   period skipping, one domain, no cache, no replay) and the cache model
   on sweeps sized to each level of the hierarchy. *)

open Microprobe

(* (configuration, program) pairs standing for the sample's jobs *)
let jobs arch = function
  | Queries.Jobs l -> List.map (fun (c, p, _) -> (c, p)) l
  | Queries.Instr_props (size, items) ->
    (* the bootstrap's independent-copies kernel of each instruction *)
    List.map
      (fun (c, (p : Epi.Bootstrap.props)) ->
        let m = p.Epi.Bootstrap.mnemonic in
        ( c,
          Stressmark.program_of_sequence ~arch ~size ~name:("probe-" ^ m)
            [ Arch.find_instruction arch m ] ))
      items
  | Queries.Evals (size, sets) ->
    List.concat_map
      (fun (_, lead, evals) ->
        List.concat_map
          (fun seq ->
            let p =
              Stressmark.program_of_sequence ~arch ~size
                ~name:("probe-" ^ String.concat "." seq)
                (List.map (Arch.find_instruction arch) seq)
            in
            List.filter_map
              (fun (e : Stressmark.evaluation) ->
                if e.Stressmark.sequence = seq then
                  Some
                    ( Uarch_def.config ~cores:8 ~smt:e.Stressmark.smt
                        arch.Arch.uarch,
                      p )
                else None)
              evals)
          lead)
      sets

let sim ~seed sample =
  let arch = get_architecture "POWER7" in
  let m = Machine.create ~seed ~cache:false ~replay:false arch.Arch.uarch in
  let jobs = jobs arch sample in
  let n = float_of_int (List.length jobs) in
  let ms_per_job period =
    let t0 = Unix.gettimeofday () in
    List.iter (fun (c, p) -> ignore (Machine.run ~period m c p)) jobs;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. n
  in
  let w0 = Gc.minor_words () in
  let dense = ms_per_job false in
  let words = (Gc.minor_words () -. w0) /. n in
  let skip = ms_per_job true in
  [ ("sim.dense_ms_per_job", dense);
    ("sim.skip_ms_per_job", skip);
    ("sim.minor_words_per_job", words) ]

(* Mean ns per Cache_sim.access over four sweeps whose working sets
   fit in L1, L2, L3 and none of them. Lines are visited in a strided
   order (an odd step through a power-of-two line count), so the
   stream prefetcher does not hide the level. *)
let cache_sim () =
  let u = (get_architecture "POWER7").Arch.uarch in
  let bytes level = (Uarch_def.cache u level).Cache_geometry.size_bytes in
  let line = (Uarch_def.cache u Cache_geometry.L1).Cache_geometry.line_bytes in
  let open Cache_geometry in
  let sweeps =
    [ bytes L1 / 2; bytes L2 / 2; bytes L3 / 2; bytes L3 * 8 ]
  in
  let ns =
    List.map
      (fun ws ->
        let lines = ws / line in
        let c = Cache_sim.create u in
        let pass () =
          for i = 0 to lines - 1 do
            ignore
              (Cache_sim.access c ~addr:((i * 97) land (lines - 1) * line)
                 ~store:false)
          done
        in
        pass ();
        let rounds = max 1 (1 lsl 20 / lines) in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to rounds do pass () done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (rounds * lines))
      sweeps
  in
  [ ("cache_sim.ns_per_access",
     List.fold_left ( +. ) 0.0 ns /. float_of_int (List.length ns)) ]
