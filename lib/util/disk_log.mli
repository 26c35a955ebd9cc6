(** Append-only keyed record logs: one segment file per (directory,
    process).

    A directory holds segments named [<namespace>-<pid>-<nonce>.seg].
    Every process appends to its own segment — opened lazily, with
    [O_APPEND], on its first write — so a segment has exactly one
    writing process and writers never coordinate. Readers index every
    segment of their namespace; the last record for a key wins.

    Each record is one checked frame:

    {v magic (1) | version (1) | key length (4, BE) | payload length (4, BE)
      | key | payload | FNV-1a 64 checksum of key and payload (8, BE) v}

    Decoding never raises: a short or garbled header ends the scan of a
    segment (a short one is retried on the next scan, since a live
    writer may still be completing it), and a checksum mismatch makes
    that record a miss. Only checksum-verified bytes reach
    [Marshal.from_string]. *)

type t

val shared : dir:string -> namespace:string -> t
(** The process's log for [(dir, namespace)]: every caller naming the
    same pair shares one writer, one segment and one index, guarded by
    one mutex. Touches no file until the first {!append} or {!find}. *)

val create : dir:string -> namespace:string -> t
(** A private log with its own writer and index, as another process
    would have. *)

val append : t -> schema:int -> string -> 'a -> unit
(** [append t ~schema key v] appends [Marshal (schema, key, v)] under
    [key] as one write followed by a flush (no fsync). Best-effort: an
    IO failure closes the segment — the next append starts a fresh one,
    so a torn frame only ever ends a segment — and is otherwise
    swallowed. The directory is created on first write. *)

val find : t -> schema:int -> string -> 'a option
(** The value of the last intact record for [key] whose payload
    carries [schema] and [key], or [None]. The first lookup indexes the
    directory; a miss re-lists it and reads only what other processes
    appended since, so their records become visible without reopening.
    A hit reads exactly the record's bytes. Never raises. *)

val is_segment : string -> bool
(** Whether a file name is a segment's ([*.seg]). *)

type dir_stats = {
  segments : int;  (** segment files in the directory (any namespace) *)
  keys : int;      (** distinct keys with a complete frame *)
  bytes : int;     (** total size of the segments *)
}

val dir_stats : string -> dir_stats
(** Read-only scan of a directory's segments; all zeros when it is
    missing. *)
