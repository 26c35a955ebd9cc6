(* In-memory spans around the benchmark's own calls into each library
   layer, recorded only in traced runs, kept in memory and summed per
   name when the run ends. They are touched from the main domain only:
   the benchmark calls each layer from there. *)

let enabled = ref false

type span = { name : string; t0 : float; t1 : float }

let spans : span list ref = ref []

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        spans := { name; t0; t1 = Unix.gettimeofday () } :: !spans)
  end

(* total seconds spent in spans called [name] *)
let seconds name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans
