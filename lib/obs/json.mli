(** Minimal self-contained JSON: printer + parser.

    Used for metrics snapshots, Chrome trace export and warning
    provenance so the repo needs no external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [int i] is [Num (float_of_int i)]. *)

val to_string : ?indent:int -> t -> string
(** Serialise.  [indent = 0] (default) is compact one-line output;
    [indent > 0] pretty-prints with that many spaces per level.  A
    non-finite [Num] (nan, infinity) prints as [null], so the output
    always parses back. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document, strictly per RFC 8259.  Numbers
    follow its grammar ([+1], [.5], [1.] and [01] are errors) and
    become [Num] (floats, JavaScript-style); [\uXXXX] escapes (exactly
    four hex digits) are decoded as UTF-8, an escaped surrogate pair as
    one 4-byte character, and any other surrogate escape is an
    [Error].  Fails closed: any input gives [Ok] or
    [Error], and objects and arrays nested more than 512 deep are an
    [Error], so no input can exhaust the stack. *)

(** Accessors, all total: *)

val member : string -> t -> t option
val to_list_opt : t -> t list option
val to_float_opt : t -> float option
val to_string_opt : t -> string option
