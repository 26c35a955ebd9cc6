open Mp_uarch
open Mp_codegen

(* ----- disk persistence -------------------------------------------------- *)

(* Bump when the on-disk entry layout or the key derivation changes.
   Simulator-behaviour changes are handled automatically: the namespace
   digests the running executable, so entries written by a different
   build are invisible (and pruned) rather than silently reused.
   v2: occupancies became exact rationals (fixed-point simulator
   arithmetic) and seed-independent measurements drop the seed from the
   key.
   v3: keys are structural-hash folds (not Marshal+MD5 digests) and
   entries live in two-hex-digit shard subdirectories.
   v4: entries are frames in per-process append-only segments
   ({!Mp_util.Disk_log}), not one file each. *)
let schema_version = 4

type disk = { dir : string; namespace : string }

(* Fingerprint of the running build: entries are only valid for the
   binary that produced them, because any change to the simulator or
   the energy table changes what a key's measurement should be.
   Computed on first use — not at module init, which would digest the
   executable in every process — and memoized in an [Atomic] rather
   than a [lazy]: pool domains can reach it together, and a racing
   duplicate digest is harmless where a concurrent [Lazy.force]
   raises. *)
let binary_stamp_memo = Atomic.make None

let binary_stamp () =
  match Atomic.get binary_stamp_memo with
  | Some s -> s
  | None ->
    let s =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with _ -> Digest.to_hex (Digest.string Sys.executable_name)
    in
    Atomic.set binary_stamp_memo (Some s);
    s

let namespace () = Printf.sprintf "v%d-%s" schema_version (binary_stamp ())

let cache_enabled () =
  match Sys.getenv_opt "MP_CACHE" with
  | Some v ->
    not
      (List.mem (String.lowercase_ascii (String.trim v))
         [ "off"; "0"; "false"; "no" ])
  | None -> true

let env_dir () =
  match Sys.getenv_opt "MP_CACHE_DIR" with
  | Some d when String.trim d <> "" -> String.trim d
  | _ -> "_mp_cache"

let env_disk () =
  if cache_enabled () then Some { dir = env_dir (); namespace = namespace () }
  else None

(* The two stores a cache directory holds: the measurement cache's
   segments in the root, the replay store's in [replay/]. *)
let store_dirs dir = [ dir; Filename.concat dir "replay" ]

let is_dir path = match Sys.is_directory path with d -> d | exception _ -> false

(* Drop what other builds left behind — at most once per directory per
   process, best-effort: every file outside this namespace in either
   store, and the two-hex-digit shard subdirectories that schema v3 and
   earlier wrote per-entry files into, once emptied. Nothing else is
   descended into: [MP_CACHE_DIR] may name a directory that holds more
   than the cache. *)
let pruned_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let pruned_lock = Mutex.create ()

let once_per_process tbl dir =
  Mutex.protect pruned_lock (fun () ->
      let fresh = not (Hashtbl.mem tbl dir) in
      if fresh then Hashtbl.add tbl dir ();
      fresh)

let is_v3_shard f =
  String.length f = 2
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) f

let prune_stale disk =
  let prefix = disk.namespace ^ "-" in
  let rec prune ~shards d =
    match Sys.readdir d with
    | exception _ -> ()
    | fs ->
      Array.iter
        (fun f ->
          let path = Filename.concat d f in
          if not (is_dir path) then begin
            if not (String.starts_with ~prefix f) then
              try Sys.remove path with _ -> ()
          end
          else if shards && is_v3_shard f then begin
            prune ~shards:false path;
            try Unix.rmdir path with _ -> ()
          end)
        fs
  in
  if once_per_process pruned_dirs disk.dir then
    List.iter (prune ~shards:true) (store_dirs disk.dir)

(* ----- housekeeping ------------------------------------------------------ *)

(* A cache directory grows without bound: the current build's segments
   accumulate across runs and every rebuild starts a fresh namespace.
   [gc] bounds both stores together by total size, evicting whole
   segments in oldest-mtime order. A segment's mtime is its last
   append, so "oldest" means "written longest ago" — across builds and
   long campaigns, the data least likely to be asked for again. *)

type gc_stats = {
  entries : int;
  removed : int;
  bytes_before : int;
  bytes_after : int;
}

let env_max_bytes () =
  match Sys.getenv_opt "MP_CACHE_MAX_MB" with
  | Some s ->
    (match float_of_string_opt (String.trim s) with
     | Some mb when mb > 0.0 -> Some (int_of_float (mb *. 1024.0 *. 1024.0))
     | _ -> None)
  | None -> None

let gc ?max_bytes dir =
  let max_bytes =
    match max_bytes with
    | Some b -> max 0 b
    | None -> (match env_max_bytes () with Some b -> b | None -> max_int)
  in
  let segments d =
    match Sys.readdir d with
    | exception _ -> []
    | fs ->
      Array.to_list fs
      |> List.filter_map (fun f ->
             let path = Filename.concat d f in
             match Unix.stat path with
             | st
               when Mp_util.Disk_log.is_segment f
                    && st.Unix.st_kind = Unix.S_REG ->
               Some (st.Unix.st_mtime, path, st.Unix.st_size)
             | _ | (exception _) -> None)
  in
  (* oldest first; the path breaks mtime ties so eviction is
     deterministic *)
  let segs = List.sort compare (List.concat_map segments (store_dirs dir)) in
  let bytes_before = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 segs in
  let total = ref bytes_before in
  let removed = ref 0 in
  List.iter
    (fun (_, path, sz) ->
      if !total > max_bytes then
        match Sys.remove path with
        | () ->
          total := !total - sz;
          incr removed
        | exception _ -> ())
    segs;
  {
    entries = List.length segs;
    removed = !removed;
    bytes_before;
    bytes_after = !total;
  }

(* Read-only counterpart to [gc]'s scan, for the `mp-cache stat` CLI. *)
type disk_stats = { ds_segments : int; ds_entries : int; ds_bytes : int }

let disk_stats dir =
  let s = Mp_util.Disk_log.dir_stats dir in
  {
    ds_segments = s.Mp_util.Disk_log.segments;
    ds_entries = s.Mp_util.Disk_log.keys;
    ds_bytes = s.Mp_util.Disk_log.bytes;
  }

(* Enforce the MP_CACHE_MAX_MB bound automatically — at most once per
   directory per process, like [prune_stale], so repeated
   [Machine.create] calls don't rescan the directory. *)
let gced_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

let gc_auto disk =
  match env_max_bytes () with
  | Some b when once_per_process gced_dirs disk.dir ->
    ignore (gc ~max_bytes:b disk.dir)
  | _ -> ()

let log_of_disk disk =
  Mp_util.Disk_log.shared ~dir:disk.dir ~namespace:disk.namespace

(* any failure — missing segment, truncation, corruption, wrong
   version — is a miss, never an error *)
let disk_read log key : Measurement.t option =
  Mp_util.Disk_log.find log ~schema:schema_version key

let disk_write log key (m : Measurement.t) =
  Mp_util.Disk_log.append log ~schema:schema_version key m

(* ----- the cache --------------------------------------------------------- *)

type t = {
  lock : Mutex.t;
  table : (string, Measurement.t) Hashtbl.t;
  pending : (string, unit) Hashtbl.t;  (* keys being computed right now *)
  resolved : Condition.t;  (* signalled when a pending key settles *)
  log : Mp_util.Disk_log.t option;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
}

type stats = { hits : int; misses : int; disk_hits : int }

let create ?disk () =
  Option.iter prune_stale disk;
  Option.iter gc_auto disk;
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    pending = Hashtbl.create 8;
    resolved = Condition.create ();
    log = Option.map log_of_disk disk;
    hits = 0;
    misses = 0;
    disk_hits = 0;
  }

let persistent t = t.log <> None

let stats t =
  Mutex.lock t.lock;
  let s = { hits = t.hits; misses = t.misses; disk_hits = t.disk_hits } in
  Mutex.unlock t.lock;
  s

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let reset_stats t =
  Mutex.lock t.lock;
  t.hits <- 0;
  t.misses <- 0;
  t.disk_hits <- 0;
  Mutex.unlock t.lock

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  t.disk_hits <- 0;
  Mutex.unlock t.lock

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

(* ----- fingerprinting --------------------------------------------------- *)

let level_tag = function
  | Cache_geometry.L1 -> '1'
  | Cache_geometry.L2 -> '2'
  | Cache_geometry.L3 -> '3'
  | Cache_geometry.MEM -> 'M'

let add_int buf n =
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_int64 buf n =
  Buffer.add_string buf (Int64.to_string n);
  Buffer.add_char buf ';'

let add_reg buf r =
  Buffer.add_string buf (Reg.to_string r);
  Buffer.add_char buf ','

let add_program buf (p : Ir.t) =
  Buffer.add_string buf p.Ir.name;
  Buffer.add_char buf '\x00';
  Array.iter
    (fun (i : Ir.instr) ->
      Buffer.add_string buf i.Ir.op.Mp_isa.Instruction.mnemonic;
      Buffer.add_char buf '(';
      List.iter (add_reg buf) i.Ir.dests;
      Buffer.add_char buf '<';
      List.iter (add_reg buf) i.Ir.srcs;
      (match i.Ir.imm with
       | Some v ->
         Buffer.add_char buf '#';
         add_int64 buf v
       | None -> ());
      (match i.Ir.mem_target with
       | Some l ->
         Buffer.add_char buf '@';
         Buffer.add_char buf (level_tag l)
       | None -> ());
      (match i.Ir.taken_pattern with
       | Some pat ->
         Buffer.add_char buf '?';
         Array.iter (fun b -> Buffer.add_char buf (if b then 't' else 'f')) pat
       | None -> ());
      Buffer.add_char buf ')')
    p.Ir.body;
  Buffer.add_char buf '|';
  List.iter
    (fun (r, v) ->
      add_reg buf r;
      Buffer.add_char buf '=';
      add_int64 buf v)
    p.Ir.reg_init;
  Buffer.add_char buf '|';
  match p.Ir.memory_distribution with
  | None -> Buffer.add_char buf '-'
  | Some dist ->
    List.iter
      (fun (l, w) ->
        Buffer.add_char buf (level_tag l);
        add_int64 buf (Int64.bits_of_float w))
      dist

let uarch_fingerprint (u : Uarch_def.t) =
  (* everything except [resources], which is a closure (both
     unmarshalable and meaningless as a content key; the instruction
     tables it encodes are versioned by the binary stamp anyway) *)
  let data =
    ( ( u.Uarch_def.name,
        u.Uarch_def.max_cores,
        u.Uarch_def.smt_modes,
        u.Uarch_def.dispatch_width,
        u.Uarch_def.completion_width,
        u.Uarch_def.window ),
      ( u.Uarch_def.pipes,
        u.Uarch_def.caches,
        u.Uarch_def.mem_latency,
        u.Uarch_def.mem_bw_lines_per_cycle,
        u.Uarch_def.freq_ghz,
        u.Uarch_def.unit_area_mm2,
        u.Uarch_def.pmcs,
        u.Uarch_def.occ_den ) )
  in
  Digest.to_hex (Digest.string (Marshal.to_string data []))

(* The original key derivation: serialise everything into a buffer and
   MD5 it. Kept as the reference implementation — the tests assert that
   the structural fold below induces the same hit/miss equivalence
   classes. *)
let key_marshal ?(uarch = "") ?seed ~(config : Uarch_def.config) ~warmup
    ~measure ~name per_thread =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf uarch;
  Buffer.add_char buf ';';
  (* [None]: the measurement is seed-independent — same bytes on any
     machine — so the key is shared across seeds *)
  (match seed with Some s -> add_int buf s | None -> Buffer.add_string buf "-;");
  add_int buf config.Uarch_def.cores;
  add_int buf config.Uarch_def.smt;
  add_int buf warmup;
  add_int buf measure;
  Buffer.add_string buf name;
  Buffer.add_char buf '\x00';
  Array.iter (add_program buf) per_thread;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* O(1) per program: fold the precomputed structural hashes instead of
   re-serialising every instruction on every lookup. The per-program
   name is hashed inside [struct_hash]; [name] here is the run label,
   which [Machine.run] seeds per-thread RNGs from, so it stays in the
   key. *)
let key_structural ?(uarch = "") ?seed ~(config : Uarch_def.config) ~warmup
    ~measure ~name per_thread =
  let module F = Mp_util.Fnv in
  let h = F.string F.seed uarch in
  let h =
    match seed with None -> F.byte h 0 | Some s -> F.int (F.byte h 1) s
  in
  let h = F.int h config.Uarch_def.cores in
  let h = F.int h config.Uarch_def.smt in
  let h = F.int h warmup in
  let h = F.int h measure in
  let h = F.string h name in
  let h = F.int h (Array.length per_thread) in
  let h =
    Array.fold_left (fun h p -> F.int64 h (Ir.struct_hash p)) h per_thread
  in
  F.to_hex (F.finish h)

(* cumulative wall time spent deriving keys, for the bench harness *)
let key_ns = Atomic.make 0

let key_seconds () = float_of_int (Atomic.get key_ns) *. 1e-9

let key ?uarch ?seed ~config ~warmup ~measure ~name per_thread =
  let t0 = Unix.gettimeofday () in
  let k = key_structural ?uarch ?seed ~config ~warmup ~measure ~name per_thread in
  let dt = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  ignore (Atomic.fetch_and_add key_ns (max 0 dt));
  k

(* ----- lookup ----------------------------------------------------------- *)

let find t k =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some m ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.lock;
    Some m
  | None ->
    Mutex.unlock t.lock;
    (* the disk probe runs outside the lock: it is pure IO and two
       racing probes of the same key load identical bytes *)
    let from_disk = Option.bind t.log (fun l -> disk_read l k) in
    Mutex.lock t.lock;
    (match from_disk with
     | Some m ->
       t.hits <- t.hits + 1;
       t.disk_hits <- t.disk_hits + 1;
       if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k m
     | None -> t.misses <- t.misses + 1);
    Mutex.unlock t.lock;
    from_disk

let add t k m =
  Mutex.lock t.lock;
  let first = not (Hashtbl.mem t.table k) in
  if first then Hashtbl.add t.table k m;
  Mutex.unlock t.lock;
  if first then Option.iter (fun l -> disk_write l k m) t.log

(* Single-flight: concurrent misses on the same key run [compute] at
   most once — the first claimant computes, everyone else blocks on
   [resolved] and reads the published value. The accounting invariant
   this preserves: [misses] counts computations actually executed
   (waiters are hits), which is what the harness reports as
   "simulations ran". *)
let rec find_or_add t k compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table k with
  | Some m ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.lock;
    m
  | None ->
    if Hashtbl.mem t.pending k then begin
      while Hashtbl.mem t.pending k do
        Condition.wait t.resolved t.lock
      done;
      let settled = Hashtbl.find_opt t.table k in
      (match settled with Some _ -> t.hits <- t.hits + 1 | None -> ());
      Mutex.unlock t.lock;
      match settled with
      | Some m -> m
      | None ->
        (* the computing domain failed; take over *)
        find_or_add t k compute
    end
    else begin
      Hashtbl.add t.pending k ();
      Mutex.unlock t.lock;
      (* the disk probe and the computation both run outside the lock *)
      match Option.bind t.log (fun l -> disk_read l k) with
      | Some m ->
        Mutex.lock t.lock;
        t.hits <- t.hits + 1;
        t.disk_hits <- t.disk_hits + 1;
        if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k m;
        Hashtbl.remove t.pending k;
        Condition.broadcast t.resolved;
        Mutex.unlock t.lock;
        m
      | None ->
        Mutex.lock t.lock;
        t.misses <- t.misses + 1;
        Mutex.unlock t.lock;
        let m =
          try compute ()
          with e ->
            Mutex.lock t.lock;
            Hashtbl.remove t.pending k;
            Condition.broadcast t.resolved;
            Mutex.unlock t.lock;
            raise e
        in
        Mutex.lock t.lock;
        if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k m;
        Hashtbl.remove t.pending k;
        Condition.broadcast t.resolved;
        Mutex.unlock t.lock;
        Option.iter (fun l -> disk_write l k m) t.log;
        m
    end
