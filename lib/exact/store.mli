(** Binary file format of the exact-synthesis database.

    A store is a table of NPN-class -> synthesis-result records.  The
    layout is

    {v
      "GLXS0001"            8-byte magic (format version in the name)
      fingerprint           u32 LE, CRC-32 of the synthesis domain
      entry*                one frame per NPN class
    v}

    where each entry frame is

    {v
      length                u32 LE, payload bytes
      checksum              u32 LE, CRC-32 of the payload
      payload               one encoded entry
    v}

    The library ships one store per representation, generated once by
    [bench npn-table] and embedded in the binary (see {!Database}).
    Reading never trusts the bytes: a frame whose checksum, decoding or
    semantic check fails is skipped, and a torn tail ends the read, each
    with a warning.

    The fingerprint pins the store to a synthesis domain (arity, operator
    set, gate and conflict budgets): results are only valid answers for the
    configuration that produced them, so [of_string] ignores a store whose
    fingerprint disagrees. *)

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

val header_fingerprint : string -> int32 option
(** The fingerprint in a store's header, [None] without a valid magic. *)

val read_file : string -> string
(** The whole file as a string. *)

val of_string : config:Synth.config -> ?source:string -> string -> load_result
(** Decode a store.  An empty string is an empty store.  A foreign magic
    or a mismatched fingerprint ignores the store ([domain_ok = false],
    warning on stderr naming [source]).  Corrupt frames and a torn tail
    are skipped with a warning; [of_string] never raises on bad
    content. *)

val to_string : config:Synth.config -> entry list -> string
(** Encode a store: header, then one frame per entry sorted by
    [(num_vars, key)], so the same entries always give the same bytes. *)

val write : config:Synth.config -> string -> entry list -> unit
(** Write [to_string ~config entries] to a file, replacing it. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string; exposed for tests. *)
