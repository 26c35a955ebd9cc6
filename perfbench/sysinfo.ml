(* Host-side measurements read from /proc (Linux): CPU time and peak
   resident memory of the benchmark process and of its children (shard
   workers and loopback TCP peers), plus file-system helpers for the
   per-run private directories. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* /proc/<pid>/stat fields after the parenthesised command name:
   state is field 3, ppid field 4, utime/stime fields 14/15 *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | s ->
    let i = String.rindex s ')' in
    Some
      (Array.of_list
         (String.split_on_char ' '
            (String.trim (String.sub s (i + 2) (String.length s - i - 2)))))
  | exception _ -> None

let children () =
  let self = Unix.getpid () in
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some pid -> (
        match stat_fields pid with
        | Some f when int_of_string_opt f.(1) = Some self -> pid :: acc
        | _ -> acc))
    [] (Sys.readdir "/proc")

(* user+system seconds of a child, at the kernel's USER_HZ = 100 *)
let child_cpu_s pid =
  match stat_fields pid with
  | Some f ->
    float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0
  | None -> 0.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of this process and every live child, by pid *)
type cpu_snapshot = { self_s : float; kids : (int * float) list }

let cpu_snapshot () =
  { self_s = self_cpu_s ();
    kids = List.map (fun p -> (p, child_cpu_s p)) (children ()) }

(* CPU seconds between two snapshots; a child born in between counts
   from zero *)
let cpu_between a b =
  List.fold_left
    (fun acc (pid, s) ->
      acc +. s -. Option.value ~default:0.0 (List.assoc_opt pid a.kids))
    (b.self_s -. a.self_s) b.kids

(* VmHWM of a process, in MiB *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)
  | exception _ -> 0.0

let peak_rss_tree_mb () =
  List.fold_left
    (fun acc pid -> acc +. peak_rss_mb (string_of_int pid))
    (peak_rss_mb "self") (children ())

(* seconds the hypervisor ran other guests while this one's CPUs were
   runnable, summed over CPUs (the steal column of /proc/stat, USER_HZ) *)
let steal_s () =
  match read_file "/proc/stat" with
  | s -> (
    let cpu = List.hd (String.split_on_char '\n' s) in
    (* cpu user nice system idle iowait irq softirq steal ... *)
    match List.filter (( <> ) "") (String.split_on_char ' ' cpu) with
    | "cpu" :: fields when List.length fields >= 8 ->
      float_of_string (List.nth fields 7) /. 100.0
    | _ -> 0.0)
  | exception Sys_error _ -> 0.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
