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
   entries live in two-hex-digit shard subdirectories. *)
let schema_version = 3

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

(* Entries shard into subdirectories named by the first two hex digits
   of the key, so a very large cache never accumulates one enormous
   flat directory (readdir/gc stay fast). The flat layout earlier
   versions wrote is still read — and migrated into its shard — by
   [disk_read]. *)
let shard_of key = if String.length key >= 2 then String.sub key 0 2 else "00"

let entry_name disk key = disk.namespace ^ "-" ^ key

let shard_dir disk key = Filename.concat disk.dir (shard_of key)

let entry_path disk key = Filename.concat (shard_dir disk key) (entry_name disk key)

(* where the pre-shard flat layout would have put this entry *)
let legacy_path disk key = Filename.concat disk.dir (entry_name disk key)

let is_dir path = match Sys.is_directory path with d -> d | exception _ -> false

(* a shard subdirectory is exactly two hex digits *)
let is_shard_name f =
  String.length f = 2
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       f

(* Drop entries left behind by other builds — at most once per
   directory per process, best-effort. *)
let pruned_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4
let pruned_lock = Mutex.create ()

let prune_dir_files dir namespace =
  match Sys.readdir dir with
  | exception _ -> ()
  | fs ->
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if not (is_dir path) then begin
          let keep =
            String.length f > String.length namespace
            && String.sub f 0 (String.length namespace) = namespace
          in
          if not keep then try Sys.remove path with _ -> ()
        end)
      fs

let prune_stale disk =
  Mutex.lock pruned_lock;
  let fresh = not (Hashtbl.mem pruned_dirs disk.dir) in
  if fresh then Hashtbl.add pruned_dirs disk.dir ();
  Mutex.unlock pruned_lock;
  if fresh then begin
    (* flat legacy entries in the root, then every shard *)
    prune_dir_files disk.dir disk.namespace;
    match Sys.readdir disk.dir with
    | exception _ -> ()
    | fs ->
      Array.iter
        (fun f ->
          let sub = Filename.concat disk.dir f in
          if is_shard_name f && is_dir sub then
            prune_dir_files sub disk.namespace)
        fs
  end

(* ----- housekeeping ------------------------------------------------------ *)

(* A cache directory grows without bound: the current build's entries
   accumulate across runs and every rebuild starts a fresh namespace.
   [gc] bounds it by total size, evicting in oldest-mtime order (a
   cheap LRU proxy: [find] never touches mtime, so "oldest" means
   "written longest ago", which across builds and long campaigns is the
   entry least likely to be asked for again). In-flight writes —
   [.tmp.*] files, which [disk_write] renames into place when complete
   — are never touched. *)

type gc_stats = {
  entries : int;
  removed : int;
  bytes_before : int;
  bytes_after : int;
}

let is_tmp f = String.length f >= 5 && String.sub f 0 5 = ".tmp."

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
  let files =
    match Sys.readdir dir with exception _ -> [||] | fs -> fs
  in
  (* entry files in [d], named relative to the cache root for the
     deterministic tie-break *)
  let scan d rel =
    match Sys.readdir d with
    | exception _ -> []
    | fs ->
      Array.to_list fs
      |> List.filter_map (fun f ->
             if is_tmp f then None
             else
               let path = Filename.concat d f in
               let rel = if rel = "" then f else Filename.concat rel f in
               match Unix.stat path with
               | exception _ -> None
               | st when st.Unix.st_kind = Unix.S_REG ->
                 Some (st.Unix.st_mtime, rel, path, st.Unix.st_size)
               | _ -> None)
  in
  let entries =
    scan dir ""
    @ (Array.to_list files
      |> List.concat_map (fun f ->
             if is_shard_name f && is_dir (Filename.concat dir f) then
               scan (Filename.concat dir f) f
             else []))
  in
  (* oldest first; name breaks mtime ties so eviction is deterministic *)
  let entries = List.sort compare entries in
  let bytes_before =
    List.fold_left (fun acc (_, _, _, sz) -> acc + sz) 0 entries
  in
  let total = ref bytes_before in
  let removed = ref 0 in
  List.iter
    (fun (_, _, path, sz) ->
      if !total > max_bytes then
        match Sys.remove path with
        | () ->
          total := !total - sz;
          incr removed
        | exception _ -> ())
    entries;
  {
    entries = List.length entries;
    removed = !removed;
    bytes_before;
    bytes_after = !total;
  }

(* Read-only counterpart to [gc]'s scan, for the `mp-cache stat` CLI:
   how many shard subdirectories, entry files and bytes a directory
   holds. In-flight [.tmp.*] files are excluded, like everywhere
   else. *)
type disk_stats = { ds_shards : int; ds_entries : int; ds_bytes : int }

let disk_stats dir =
  let count d (entries, bytes) =
    match Sys.readdir d with
    | exception _ -> (entries, bytes)
    | fs ->
      Array.fold_left
        (fun (entries, bytes) f ->
          if is_tmp f then (entries, bytes)
          else
            match Unix.stat (Filename.concat d f) with
            | exception _ -> (entries, bytes)
            | st when st.Unix.st_kind = Unix.S_REG ->
              (entries + 1, bytes + st.Unix.st_size)
            | _ -> (entries, bytes))
        (entries, bytes) fs
  in
  let acc = count dir (0, 0) in
  let shards, (entries, bytes) =
    match Sys.readdir dir with
    | exception _ -> (0, acc)
    | fs ->
      Array.fold_left
        (fun (shards, acc) f ->
          let sub = Filename.concat dir f in
          if is_shard_name f && is_dir sub then (shards + 1, count sub acc)
          else (shards, acc))
        (0, acc) fs
  in
  { ds_shards = shards; ds_entries = entries; ds_bytes = bytes }

(* Enforce the MP_CACHE_MAX_MB bound automatically — at most once per
   directory per process, like [prune_stale], so repeated
   [Machine.create] calls don't rescan the directory. *)
let gced_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

let gc_auto disk =
  match env_max_bytes () with
  | None -> ()
  | Some b ->
    Mutex.lock pruned_lock;
    let fresh = not (Hashtbl.mem gced_dirs disk.dir) in
    if fresh then Hashtbl.add gced_dirs disk.dir ();
    Mutex.unlock pruned_lock;
    if fresh then ignore (gc ~max_bytes:b disk.dir)

let ensure_dir dir = try Unix.mkdir dir 0o755 with _ -> ()

let tmp_counter = Atomic.make 0

(* write-to-temp + rename: readers never observe a partial file, and
   concurrent writers of the same path are both writing identical
   bytes. The temp, [.tmp.<pid>.<n>], lives in the destination's
   directory so the rename stays atomic within one directory; a failed
   write closes its channel and removes its temp before re-raising. *)
let write_file path v =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp.%d.%d" (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let oc = open_out_bin tmp in
  try
    Marshal.to_channel oc v [];
    close_out oc;
    Sys.rename tmp path
  with e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let disk_write disk key (m : Measurement.t) =
  try
    ensure_dir disk.dir;
    ensure_dir (shard_dir disk key);
    write_file (entry_path disk key) (schema_version, key, m)
  with _ -> ()

(* any failure — missing file, truncation, corruption, wrong version —
   is a miss, never an error *)
let read_entry key path : Measurement.t option =
  match open_in_bin path with
  | exception _ -> None
  | ic ->
    let r =
      try
        let (v : int), (k : string), (m : Measurement.t) =
          Marshal.from_channel ic
        in
        if v = schema_version && k = key then Some m else None
      with _ -> None
    in
    close_in_noerr ic;
    r

let disk_read disk key : Measurement.t option =
  match read_entry key (entry_path disk key) with
  | Some m -> Some m
  | None ->
    (* flat legacy layout: serve the entry and migrate it into its
       shard, best-effort (a racing migrator renames identical bytes,
       so either rename winning is fine) *)
    (match read_entry key (legacy_path disk key) with
     | None -> None
     | Some m ->
       (try
          ensure_dir (shard_dir disk key);
          Sys.rename (legacy_path disk key) (entry_path disk key)
        with _ -> ());
       Some m)

(* ----- the cache --------------------------------------------------------- *)

type t = {
  lock : Mutex.t;
  table : (string, Measurement.t) Hashtbl.t;
  pending : (string, unit) Hashtbl.t;  (* keys being computed right now *)
  resolved : Condition.t;  (* signalled when a pending key settles *)
  disk : disk option;
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
    disk;
    hits = 0;
    misses = 0;
    disk_hits = 0;
  }

let persistent t = t.disk <> None

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
    let from_disk = Option.bind t.disk (fun d -> disk_read d k) in
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
  if first then Option.iter (fun d -> disk_write d k m) t.disk

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
      match Option.bind t.disk (fun d -> disk_read d k) with
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
        Option.iter (fun d -> disk_write d k m) t.disk;
        m
    end
