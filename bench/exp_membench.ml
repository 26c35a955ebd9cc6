(* membench: the packed cache model against the list reference on
   dense memory kernels.

   Two halves, both asserting bit-identity between the models before
   trusting any clock:

   - Kernels: one single-level memory micro-benchmark per target level
     (L1/L2/L3/MEM) x SMT 1/2/4, run on a cache-off/replay-off machine
     so every lap simulates densely. The L3/MEM pools are longer than
     the measured window, so the period detector fingerprints every
     iteration boundary without ever matching — exactly the case whose
     O(sets x ways) serialization the packed model's rolling digest
     replaces. CI floors: >= 2x packed-vs-list aggregate wall-clock on
     the L3/MEM kernels, every kernel's loads sourced predominantly
     from its targeted level, at most [max_minor_words_per_cycle]
     minor-heap words allocated per simulated cycle on every kernel,
     and at most [max_issue_probes_per_issue] ready-set probes per
     issued instruction (a host-independent partner of the clock).

   - Stride sweep: a raw Cache_sim throughput walk over the
     STREAM-like [Set_assoc_model.sequential_stream] at MEM footprint,
     strides 1..16 lines — the first step toward the ROADMAP's
     bandwidth-saturation campaign. At stride 1 the sequential
     prefetcher covers the walk (sources collapse to L1); stride >= 2
     defeats the streak and the walk misses to memory. The curve also
     lands in BENCH_scaling.json via the shared context.

   Artifacts: per-kernel metrics in BENCH_sim.json, the full histogram
   table in BENCH_mem.json and BENCH_mem_hist.csv (the latter read by
   `microprobe mem-stat`). *)

open Microprobe

let targets = [ Cache_geometry.L1; Cache_geometry.L2; Cache_geometry.L3;
                Cache_geometry.MEM ]

let smts = [ 1; 2; 4 ]

let strides = [ 1; 2; 4; 8; 16 ]

(* measured iterations per lap: below the 25-line L3/MEM pool length,
   so their iteration phases never repeat and every boundary pays a
   fingerprint — the list model's worst case and the packed model's
   target case *)
let measure = 16

(* allocation ceiling per simulated cycle (packed model, whole
   Machine.run lap): the simulator step allocates nothing per cycle or
   per issue, so what remains is per-boundary fingerprinting and the
   per-run setup; a closure or boxed value back in the step loop
   pushes the dense kernels well past it *)
let max_minor_words_per_cycle = 150.0

(* ceiling on ready-set probes per issued instruction (whole packed
   laps, warm-up included): issue tests only the head of each resource
   class's ready list, and these kernels read 1.1-3.4 (the SMT4 kernels
   highest: every thread tests its heads each cycle, after the first
   threads took the load pipes), so the ceiling leaves ~1.5x headroom.
   A walk that re-tests every ready entry read 1.3-110, over 15 on
   every L1/L2 kernel. *)
let max_issue_probes_per_issue = 5.0

let lname = Cache_geometry.level_to_string

(* Flip the model under [f] via the env knob the simulator reads at
   every [Cache_sim.create] — single-job [Machine.run] simulates on
   the calling domain, so the assignment is race-free here. *)
let with_model model f =
  let prev = Option.value ~default:"" (Sys.getenv_opt "MP_CACHE_MODEL") in
  Unix.putenv "MP_CACHE_MODEL" (Cache_sim.model_to_string model);
  Fun.protect ~finally:(fun () -> Unix.putenv "MP_CACHE_MODEL" prev) f

let synth_kernel (ctx : Context.t) target size =
  let arch = ctx.Context.arch in
  let lbz = Arch.find_instruction arch "lbz" in
  let synth =
    Synthesizer.create ~name:("membench-" ^ lname target) arch
  in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_uniform [ lbz ]);
  Synthesizer.add_pass synth (Passes.memory_model [ (target, 1.0) ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  Synthesizer.synthesize ~seed:77 synth

type kernel = {
  k_target : Cache_geometry.level;
  k_smt : int;
  k_list_s : float;
  k_packed_s : float;
  k_frac : float array;  (* loads per source level / total, L1..MEM *)
  k_minor_words_per_cycle : float;
  k_probes : int;  (* ready-set probes over the packed laps *)
  k_issued : int;  (* instructions issued over the packed laps *)
}

let probes_per_issue probes issued =
  float_of_int probes /. float_of_int (max 1 issued)

let run_kernels (ctx : Context.t) machine =
  let reps = if ctx.Context.quick then 3 else 8 in
  let size = if ctx.Context.quick then 128 else 256 in
  List.concat_map
    (fun target ->
      let p = synth_kernel ctx target size in
      List.map
        (fun smt ->
          let config = Context.config ctx ~cores:1 ~smt in
          let side model =
            with_model model (fun () ->
                (* prime lap outside the clock; later laps must
                   reproduce it bit for bit *)
                let prime = Machine.run ~measure ~period:true machine config p in
                let g0 = Gc.minor_words () in
                let p0 = Core_sim.issue_probes () and i0 = Core_sim.issued () in
                let t0 = Unix.gettimeofday () in
                for _ = 1 to reps do
                  let r = Machine.run ~measure ~period:true machine config p in
                  if compare prime r <> 0 then
                    failwith
                      (Printf.sprintf "membench: %s laps diverge (%s smt%d)"
                         (Cache_sim.model_to_string model) (lname target) smt)
                done;
                let dt = Unix.gettimeofday () -. t0 in
                ( prime, dt, Gc.minor_words () -. g0,
                  Core_sim.issue_probes () - p0, Core_sim.issued () - i0 ))
          in
          let m_list, t_list, _, _, _ = side Cache_sim.List_ref in
          let m_packed, t_packed, minor, probes, issued =
            side Cache_sim.Packed
          in
          (* the tentpole invariant: the packed model must not change a
             single measured bit *)
          if compare m_list m_packed <> 0 then
            failwith
              (Printf.sprintf
                 "membench: packed and list results diverge (%s smt%d)"
                 (lname target) smt);
          let c = Measurement.core_counters m_packed in
          let loads = Measurement.(c.l1 +. c.l2 +. c.l3 +. c.mem) in
          let frac v = v /. Float.max 1.0 loads in
          {
            k_target = target;
            k_smt = smt;
            k_list_s = t_list;
            k_packed_s = t_packed;
            k_frac =
              Measurement.[| frac c.l1; frac c.l2; frac c.l3; frac c.mem |];
            k_minor_words_per_cycle =
              minor /. Float.max 1.0 (float_of_int reps *. c.Measurement.cycles);
            k_probes = probes;
            k_issued = issued;
          })
        smts)
    targets

(* Raw model throughput: one warm lap over the strided walk, then timed
   laps, per model; source-level counts must agree between models. *)
let stride_cell (ctx : Context.t) ~stride =
  let uarch = ctx.Context.arch.Arch.uarch in
  let stream =
    Set_assoc_model.sequential_stream ~uarch ~target:Cache_geometry.MEM
      ~stride_lines:stride
  in
  let addrs = stream.Set_assoc_model.addresses in
  let n = Array.length addrs in
  let laps = if ctx.Context.quick then 2 else 4 in
  let side model =
    let c = Cache_sim.create ~model uarch in
    Array.iter (fun a -> ignore (Cache_sim.access c ~addr:a ~store:false)) addrs;
    Cache_sim.reset_stats c;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to laps do
      Array.iter
        (fun a -> ignore (Cache_sim.access c ~addr:a ~store:false))
        addrs
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if not (Cache_sim.digest_consistent c) then
      failwith "membench: rolling digest diverged from recomputation";
    let hist =
      Array.of_list
        (List.map (fun l -> Cache_sim.hits c l) Cache_geometry.all_levels)
    in
    (float_of_int (laps * n) /. Float.max 1e-9 dt /. 1e6, hist)
  in
  let packed_mps, packed_hist = side Cache_sim.Packed in
  let list_mps, list_hist = side Cache_sim.List_ref in
  if packed_hist <> list_hist then
    failwith
      (Printf.sprintf "membench: stride-%d source histograms diverge" stride);
  let total =
    Float.max 1.0 (float_of_int (Array.fold_left ( + ) 0 packed_hist))
  in
  let frac = Array.map (fun h -> float_of_int h /. total) packed_hist in
  (stride, packed_mps, list_mps, frac)

(* ----- artifacts ---------------------------------------------------------- *)

let write_mem_json ~quick kernels stride_rows l3mem_speedup =
  let path = "BENCH_mem.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"mode\": %S,\n" (if quick then "quick" else "full");
  out "  \"l3mem_speedup\": %.6f,\n" l3mem_speedup;
  out "  \"kernels\": [\n";
  List.iteri
    (fun i k ->
      out
        "    { \"target\": %S, \"smt\": %d, \"list_seconds\": %.6f, \
         \"packed_seconds\": %.6f, \"speedup\": %.6f, \"frac\": { \"L1\": \
         %.4f, \"L2\": %.4f, \"L3\": %.4f, \"MEM\": %.4f }, \
         \"minor_words_per_cycle\": %.6f }%s\n"
        (lname k.k_target) k.k_smt k.k_list_s k.k_packed_s
        (k.k_list_s /. Float.max 1e-9 k.k_packed_s)
        k.k_frac.(0) k.k_frac.(1) k.k_frac.(2) k.k_frac.(3)
        k.k_minor_words_per_cycle
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  out "  ],\n";
  out "  \"stride_sweep\": [\n";
  List.iteri
    (fun i (s, pm, lm, frac) ->
      out
        "    { \"stride_lines\": %d, \"packed_maccess_per_s\": %.3f, \
         \"list_maccess_per_s\": %.3f, \"frac\": { \"L1\": %.4f, \"L2\": \
         %.4f, \"L3\": %.4f, \"MEM\": %.4f } }%s\n"
        s pm lm frac.(0) frac.(1) frac.(2) frac.(3)
        (if i = List.length stride_rows - 1 then "" else ","))
    stride_rows;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Context.log "wrote %s" path

let write_hist_csv kernels stride_rows =
  let csv =
    Mp_util.Csv.create
      [ "kind"; "target"; "smt_or_stride"; "list_seconds_or_maccess";
        "packed_seconds_or_maccess"; "speedup"; "frac_l1"; "frac_l2";
        "frac_l3"; "frac_mem"; "minor_words_per_cycle" ]
  in
  List.iter
    (fun k ->
      Mp_util.Csv.add_row csv
        [ "kernel"; lname k.k_target; string_of_int k.k_smt;
          Printf.sprintf "%.6f" k.k_list_s;
          Printf.sprintf "%.6f" k.k_packed_s;
          Printf.sprintf "%.3f" (k.k_list_s /. Float.max 1e-9 k.k_packed_s);
          Printf.sprintf "%.4f" k.k_frac.(0);
          Printf.sprintf "%.4f" k.k_frac.(1);
          Printf.sprintf "%.4f" k.k_frac.(2);
          Printf.sprintf "%.4f" k.k_frac.(3);
          Printf.sprintf "%.6f" k.k_minor_words_per_cycle ])
    kernels;
  List.iter
    (fun (s, pm, lm, frac) ->
      Mp_util.Csv.add_row csv
        [ "stride"; "MEM"; string_of_int s; Printf.sprintf "%.3f" lm;
          Printf.sprintf "%.3f" pm;
          Printf.sprintf "%.3f" (pm /. Float.max 1e-9 lm);
          Printf.sprintf "%.4f" frac.(0); Printf.sprintf "%.4f" frac.(1);
          Printf.sprintf "%.4f" frac.(2); Printf.sprintf "%.4f" frac.(3);
          "" ])
    stride_rows;
  Mp_util.Csv.save csv "BENCH_mem_hist.csv";
  Context.log "wrote BENCH_mem_hist.csv"

(* ----- entry point -------------------------------------------------------- *)

let run (ctx : Context.t) =
  Context.section "membench — packed vs list memory hierarchy";
  let arch = ctx.Context.arch in
  (* cache and replay off: every lap re-simulates, so the clock times
     the cache model and the fingerprint path, nothing else *)
  let machine = Machine.create ~cache:false ~replay:false arch.Arch.uarch in
  let kernels = run_kernels ctx machine in
  let table =
    Mp_util.Text_table.create
      [ "Target"; "SMT"; "list s"; "packed s"; "speedup"; "frac@target";
        "minorw/cyc"; "probes/issue" ]
  in
  List.iter
    (fun k ->
      let speedup = k.k_list_s /. Float.max 1e-9 k.k_packed_s in
      let tfrac = k.k_frac.(Cache_geometry.level_rank k.k_target) in
      Mp_util.Text_table.add_row table
        [ lname k.k_target; string_of_int k.k_smt;
          Printf.sprintf "%.4f" k.k_list_s;
          Printf.sprintf "%.4f" k.k_packed_s;
          Printf.sprintf "%.2fx" speedup;
          Printf.sprintf "%.2f" tfrac;
          Printf.sprintf "%.2f" k.k_minor_words_per_cycle;
          Printf.sprintf "%.2f" (probes_per_issue k.k_probes k.k_issued) ];
      let base = Printf.sprintf "membench_%s_smt%d" (lname k.k_target) k.k_smt in
      Context.record_metric ctx (base ^ "_list_seconds") k.k_list_s;
      Context.record_metric ctx (base ^ "_packed_seconds") k.k_packed_s;
      Context.record_metric ctx (base ^ "_speedup") speedup;
      Context.record_metric ctx (base ^ "_target_frac") tfrac;
      Context.record_metric ctx
        (base ^ "_minor_words_per_cycle")
        k.k_minor_words_per_cycle;
      Context.record_metric ctx
        (base ^ "_issue_probes_per_issue")
        (probes_per_issue k.k_probes k.k_issued))
    kernels;
  let sum_int f = List.fold_left (fun a k -> a + f k) 0 kernels in
  Context.record_metric ctx "issue_probes_per_issue"
    (probes_per_issue
       (sum_int (fun k -> k.k_probes))
       (sum_int (fun k -> k.k_issued)));
  Mp_util.Text_table.print table;
  (* histogram sanity gate: a single-level kernel's loads must land on
     the level the analytical model guarantees *)
  List.iter
    (fun k ->
      let tfrac = k.k_frac.(Cache_geometry.level_rank k.k_target) in
      if tfrac < 0.75 then
        failwith
          (Printf.sprintf
             "membench: %s smt%d kernel sources only %.2f of its loads from \
              its target level"
             (lname k.k_target) k.k_smt tfrac))
    kernels;
  (* allocation ceiling on every kernel *)
  List.iter
    (fun k ->
      if k.k_minor_words_per_cycle > max_minor_words_per_cycle then
        failwith
          (Printf.sprintf
             "membench: %s smt%d kernel allocates %.1f minor words per cycle \
              (ceiling %.0f) — the simulator step has started allocating"
             (lname k.k_target) k.k_smt k.k_minor_words_per_cycle
             max_minor_words_per_cycle))
    kernels;
  (* work ceiling on the issue stage, on every kernel *)
  List.iter
    (fun k ->
      let ppi = probes_per_issue k.k_probes k.k_issued in
      if ppi > max_issue_probes_per_issue then
        failwith
          (Printf.sprintf
             "membench: %s smt%d kernel tests %.2f ready-set entries per \
              issue (ceiling %.1f) — the issue stage is re-testing blocked \
              entries"
             (lname k.k_target) k.k_smt ppi max_issue_probes_per_issue))
    kernels;
  (* speedup floor on the kernels that fingerprint every boundary *)
  let deep =
    List.filter
      (fun k -> k.k_target = Cache_geometry.L3 || k.k_target = Cache_geometry.MEM)
      kernels
  in
  let sum f = List.fold_left (fun a k -> a +. f k) 0.0 deep in
  let l3mem_speedup =
    sum (fun k -> k.k_list_s) /. Float.max 1e-9 (sum (fun k -> k.k_packed_s))
  in
  Context.record_metric ctx "membench_l3mem_speedup" l3mem_speedup;
  Context.log
    "L3/MEM-resident kernels: packed %.2fx vs list (floor 2.0x);\n\
     all 12 kernels bit-identical across models, within %.0f minor \
     words per cycle and %.1f ready-set probes per issue"
    l3mem_speedup max_minor_words_per_cycle max_issue_probes_per_issue;
  if l3mem_speedup < 2.0 then
    failwith
      (Printf.sprintf
         "membench: packed model only %.2fx vs list on L3/MEM kernels \
          (floor 2.0x) — the dense-path or fingerprint fast path has \
          regressed"
         l3mem_speedup);
  (* stride sweep *)
  let stride_rows = List.map (fun s -> stride_cell ctx ~stride:s) strides in
  List.iter
    (fun (s, pm, lm, frac) ->
      Context.record_metric ctx
        (Printf.sprintf "membench_stride%d_packed_maccess_s" s) pm;
      Context.record_metric ctx
        (Printf.sprintf "membench_stride%d_list_maccess_s" s) lm;
      Context.log
        "stride %2d: packed %6.1f Macc/s, list %6.1f Macc/s, sources \
         L1/L2/L3/MEM %.2f/%.2f/%.2f/%.2f"
        s pm lm frac.(0) frac.(1) frac.(2) frac.(3))
    stride_rows;
  ctx.Context.membench_stride <- stride_rows;
  write_mem_json ~quick:ctx.Context.quick kernels stride_rows l3mem_speedup;
  write_hist_csv kernels stride_rows
