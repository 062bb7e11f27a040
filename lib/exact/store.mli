(** Append-only on-disk persistence for the exact-synthesis database.

    The store is a binary log of NPN-class -> synthesis-result records.
    The file layout is

    {v
      "GLXS0001"            8-byte magic (format version in the name)
      fingerprint           u32 LE, CRC-32 of the synthesis domain
      entry*                frames appended over time
    v}

    where each entry frame is

    {v
      length                u32 LE, payload bytes
      checksum              u32 LE, CRC-32 of the payload
      payload               one encoded entry
    v}

    Crash safety comes from the append-only discipline: every state of the
    file is a valid store plus at most one torn tail frame, which [load]
    skips with a warning.  Frames whose checksum does not match are skipped
    individually (the length field still delimits them).  Concurrent
    appenders open the file in [O_APPEND] mode and write whole frames in
    one [write], so interleaved appends from several processes never
    corrupt each other's records.

    The fingerprint pins the store to a synthesis domain (arity, operator
    set, gate and conflict budgets): results are only valid answers for the
    configuration that produced them, so [load] refuses — without touching
    the file — when the fingerprint disagrees. *)

type entry = {
  num_vars : int;  (** variables of the canonical table *)
  key : string;  (** canonical truth table, kitty hex *)
  result : Synth.result;
}

type load_result = {
  entries : entry list;  (** decoded entries, in file order *)
  loaded : int;  (** [List.length entries] *)
  skipped : int;  (** corrupt or truncated frames that were passed over *)
  domain_ok : bool;  (** header matched [fingerprint config] *)
}

val fingerprint : Synth.config -> int32
(** Identity of the synthesis domain a store caches results for.  Covers
    arity, allowed operators, [allow_constant], [max_gates] and
    [conflict_budget] (a result — especially a [Failed] one — is only
    reusable under the budgets that produced it): every field of
    {!Synth.config}. *)

val load : config:Synth.config -> string -> load_result
(** Read a store file.  A missing or empty file is an empty store.  A file
    with a foreign magic or a mismatched fingerprint is ignored
    ([domain_ok = false], warning on stderr).  Corrupt frames and a torn
    tail are skipped with a warning; [load] never raises on bad content. *)

val append : config:Synth.config -> string -> entry list -> bool
(** Append entries, creating the file (with its header) if needed.
    Returns [false] — with a warning, without writing — when the existing
    file belongs to a different domain.  Each entry is written as one
    [write] on an [O_APPEND] descriptor, so concurrent appenders
    interleave at frame granularity. *)

val compact : config:Synth.config -> string -> entry list -> unit
(** Rewrite the store to exactly [entries]: fresh header and frames are
    written to a temporary file, fsync'd, then atomically renamed over
    [path] — a crash leaves either the old or the new store, never a mix. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string; exposed for tests. *)
