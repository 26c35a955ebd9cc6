(* Append-only keyed record logs: one segment per (directory, process).

   Creating a file costs an inode — a fraction of a millisecond of
   system time on ext4 — while an append plus flush costs microseconds,
   so a store that persists every measurement keeps one open segment
   per process and appends checked frames to it. Readers index the
   frames once and re-read only what other processes appended since. *)

let magic = '\xd7'
let version = '\001'
let header_len = 10 (* magic, version, key length, payload length *)
let trailer_len = 8 (* checksum *)
let max_key_len = 4096
let max_payload_len = 1 lsl 30

(* scan buffer: always holds a whole header plus the longest key *)
let chunk = 65536

type seg = {
  path : string;
  mutable scanned : int; (* frames before this offset are indexed *)
  mutable broken : bool; (* a garbled header: nothing after it is read *)
}

type loc = { seg : seg; off : int; len : int }

type writer = { oc : out_channel; pid : int; wseg : seg; mutable pos : int }

type t = {
  dir : string;
  namespace : string;
  lock : Mutex.t;
  index : (string, loc) Hashtbl.t;
  segs : (string, seg) Hashtbl.t; (* by file name *)
  mutable indexed : bool;
  mutable writer : writer option;
  mutable buf : Bytes.t; (* allocated by the first scan *)
}

let create ~dir ~namespace =
  {
    dir;
    namespace;
    lock = Mutex.create ();
    index = Hashtbl.create 256;
    segs = Hashtbl.create 8;
    indexed = false;
    writer = None;
    buf = Bytes.empty;
  }

let registry : (string * string, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let shared ~dir ~namespace =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry (dir, namespace) with
      | Some t -> t
      | None ->
        let t = create ~dir ~namespace in
        Hashtbl.add registry (dir, namespace) t;
        t)

let is_segment f = Filename.check_suffix f ".seg"

(* ----- frames ------------------------------------------------------------ *)

(* the checksum covers both lengths, so a corrupted split between key
   and payload cannot pass as an intact frame *)
let lengths_hash klen plen = Fnv.int (Fnv.int Fnv.seed klen) plen

let u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFF_FFFF

(* [Some (key length, payload length)] when [b] holds a plausible
   header at [off] *)
let parse_header b off =
  if Bytes.get b off <> magic || Bytes.get b (off + 1) <> version then None
  else
    let klen = u32 b (off + 2) and plen = u32 b (off + 6) in
    if klen > max_key_len || plen > max_payload_len then None
    else Some (klen, plen)

let rec read_full fd b off len =
  if len = 0 then 0
  else
    match Unix.read fd b off len with
    | 0 -> 0
    | n -> n + read_full fd b (off + n) (len - n)

let with_fd path f =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try f fd with Unix.Unix_error _ -> None)

(* Index the complete frames of [seg] between [seg.scanned] and [size],
   reading through [buf] in chunks. A short frame — torn, or still
   being written — stops the scan where it starts, so the next scan
   retries it; a garbled header stops it for good. *)
let scan_segment buf seg ~size on_frame =
  ignore
  @@ with_fd seg.path (fun fd ->
         let cap = Bytes.length buf in
         (* [buf] holds the file's bytes [base, base + avail) *)
         let base = ref 0 and avail = ref 0 in
         let resident pos n =
           (pos >= !base && pos + n <= !base + !avail)
           || pos + n <= size
              && begin
                ignore (Unix.lseek fd pos Unix.SEEK_SET);
                base := pos;
                avail := read_full fd buf 0 (min cap (size - pos));
                n <= !avail
              end
         in
         let rec go pos =
           seg.scanned <- pos;
           if resident pos header_len then
             match parse_header buf (pos - !base) with
             | None -> seg.broken <- true
             | Some (klen, plen) ->
               let len = header_len + klen + plen + trailer_len in
               if pos + len <= size && resident pos (header_len + klen) then begin
                 on_frame
                   (Bytes.sub_string buf (pos - !base + header_len) klen)
                   pos len;
                 go (pos + len)
               end
         in
         go seg.scanned;
         None)

(* The payload of the frame at [loc] when it is intact and holds [key]:
   exactly the frame's bytes are read, through a descriptor of its own,
   so concurrent lookups share nothing. *)
let read_payload loc key =
  with_fd loc.seg.path (fun fd ->
      if Unix.lseek fd loc.off Unix.SEEK_SET <> loc.off then None
      else
        let b = Bytes.create loc.len in
        if read_full fd b 0 loc.len < loc.len then None
        else
          match parse_header b 0 with
          | Some (klen, plen)
            when header_len + klen + plen + trailer_len = loc.len
                 && klen = String.length key
                 && Bytes.sub_string b header_len klen = key ->
            let s = Bytes.unsafe_to_string b in
            let sum =
              Fnv.finish
                (Fnv.sub (lengths_hash klen plen) s header_len (klen + plen))
            in
            if Bytes.get_int64_be b (header_len + klen + plen) = sum then
              Some (s, header_len + klen)
            else None
          | _ -> None)

(* ----- reading ----------------------------------------------------------- *)

(* List the directory and index whatever this namespace's segments
   gained since the last scan. Called with the lock held. *)
let refresh t =
  t.indexed <- true;
  let prefix = t.namespace ^ "-" in
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if String.starts_with ~prefix name && is_segment name then begin
          let seg =
            match Hashtbl.find_opt t.segs name with
            | Some s -> s
            | None ->
              let s =
                { path = Filename.concat t.dir name; scanned = 0; broken = false }
              in
              Hashtbl.add t.segs name s;
              s
          in
          match Unix.stat seg.path with
          | st when (not seg.broken) && st.Unix.st_size > seg.scanned ->
            if Bytes.length t.buf = 0 then t.buf <- Bytes.create chunk;
            scan_segment t.buf seg ~size:st.Unix.st_size (fun key off len ->
                Hashtbl.replace t.index key { seg; off; len })
          | _ | (exception Unix.Unix_error _) -> ()
        end)
      names

let find t ~schema key =
  let loc =
    Mutex.protect t.lock (fun () ->
        match if t.indexed then Hashtbl.find_opt t.index key else None with
        | Some _ as loc -> loc
        | None ->
          refresh t;
          Hashtbl.find_opt t.index key)
  in
  match Option.bind loc (fun loc -> read_payload loc key) with
  | None -> None
  | Some (s, off) ->
    (try
       let (v : int), (k : string), x = Marshal.from_string s off in
       if v = schema && k = key then Some x else None
     with _ -> None)

(* ----- writing ----------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh segment for this process. The nonce keeps a recycled pid
   from reopening a dead process's segment. *)
let open_writer t =
  mkdir_p t.dir;
  let pid = Unix.getpid () in
  let rng = Random.State.make_self_init () in
  let rec open_new tries =
    let name =
      Printf.sprintf "%s-%d-%08x.seg" t.namespace pid
        (Random.State.bits rng)
    in
    let path = Filename.concat t.dir name in
    match
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_APPEND;
          Unix.O_CLOEXEC ]
        0o644
    with
    | fd -> (name, path, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 0 ->
      open_new (tries - 1)
  in
  let name, path, fd = open_new 8 in
  let wseg = { path; scanned = 0; broken = false } in
  Hashtbl.replace t.segs name wseg;
  let w = { oc = Unix.out_channel_of_descr fd; pid; wseg; pos = 0 } in
  t.writer <- Some w;
  w

(* The writer belongs to the process that opened it: a forked child
   leaves the inherited one alone and opens a segment of its own. *)
let writer t =
  match t.writer with
  | Some w when w.pid = Unix.getpid () -> w
  | _ -> open_writer t

let close_writer t =
  Option.iter (fun w -> close_out_noerr w.oc) t.writer;
  t.writer <- None

let append t ~schema key v =
  match Marshal.to_string (schema, key, v) [] with
  | exception _ -> ()
  | payload ->
    let klen = String.length key and plen = String.length payload in
    if klen <= max_key_len && plen <= max_payload_len then begin
      let header = Bytes.create header_len in
      Bytes.set header 0 magic;
      Bytes.set header 1 version;
      Bytes.set_int32_be header 2 (Int32.of_int klen);
      Bytes.set_int32_be header 6 (Int32.of_int plen);
      let sum = Bytes.create trailer_len in
      Bytes.set_int64_be sum 0
        (Fnv.finish
           (Fnv.sub
              (Fnv.sub (lengths_hash klen plen) key 0 klen)
              payload 0 plen));
      let len = header_len + klen + plen + trailer_len in
      Mutex.protect t.lock (fun () ->
          match writer t with
          | exception _ -> ()
          | w ->
            (try
               output_bytes w.oc header;
               output_string w.oc key;
               output_string w.oc payload;
               output_bytes w.oc sum;
               flush w.oc;
               let off = w.pos in
               w.pos <- off + len;
               if t.indexed then begin
                 Hashtbl.replace t.index key { seg = w.wseg; off; len };
                 w.wseg.scanned <- w.pos
               end
             with _ -> close_writer t))
    end

(* ----- statistics -------------------------------------------------------- *)

type dir_stats = { segments : int; keys : int; bytes : int }

let dir_stats dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> { segments = 0; keys = 0; bytes = 0 }
  | names ->
    let keys = Hashtbl.create 256 in
    let buf = Bytes.create chunk in
    let segments, bytes =
      Array.fold_left
        (fun ((segments, bytes) as acc) name ->
          let path = Filename.concat dir name in
          match Unix.stat path with
          | st when is_segment name && st.Unix.st_kind = Unix.S_REG ->
            let size = st.Unix.st_size in
            scan_segment buf
              { path; scanned = 0; broken = false }
              ~size
              (fun key _ _ -> Hashtbl.replace keys key ());
            (segments + 1, bytes + size)
          | _ | (exception Unix.Unix_error _) -> acc)
        (0, 0) names
    in
    { segments; keys = Hashtbl.length keys; bytes }
