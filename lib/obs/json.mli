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
(** Parse a complete JSON document.  Numbers become [Num] (floats,
    JavaScript-style); [\uXXXX] escapes are decoded as UTF-8 (BMP
    only). *)

(** Accessors, all total: *)

val member : string -> t -> t option
val to_list_opt : t -> t list option
val to_float_opt : t -> float option
val to_string_opt : t -> string option
