(** The C++ object model, reduced to its memory behaviour.

    Objects live in VM memory as [vptr :: fields]; constructors install
    the vtable pointer level by level (base→derived) and destructors
    re-install it level by level (derived→base) before the memory is
    released — the write pattern behind the paper's dominant
    false-positive class (§4.2.1), which the DR annotation suppresses
    via a [VALGRIND_HG_DESTRUCT] client request ahead of the chain. *)

module Loc = Raceguard_util.Loc

type class_desc = {
  cls_name : string;
  parent : class_desc option;
  own_fields : string list;
  dtor_body : (t -> int -> unit) option;
      (** user destructor body for this level: receives the class (for
          field access) and the object address *)
}

and t = class_desc

val define :
  ?parent:class_desc ->
  ?dtor_body:(t -> int -> unit) ->
  name:string ->
  fields:string list ->
  unit ->
  class_desc
(** Define a class (single inheritance via [parent]). *)

val vtable_id : class_desc -> int
(** The class's vtable identifier (what the vptr slot holds): numbered
    from 1 in first-use order within each VM run, so a run's memory
    values do not depend on earlier runs. *)

val chain : class_desc -> class_desc list
(** Base-most first. *)

val all_fields : class_desc -> string list
(** Inherited first, declaration order. *)

val size : class_desc -> int
(** Object size in words: 1 (vptr) + all fields. *)

val field_offset : class_desc -> string -> int
(** Word offset within the object; raises [Invalid_argument] for an
    unknown field. *)

val scrub :
  file:string ->
  base_line:int ->
  class_desc ->
  int ->
  strings:string list ->
  ints:string list ->
  unit
(** Destructor-body helper: release each ref-counted string field and
    zero each plain field, one source line per member — compiled
    destructors touch each member at a distinct instruction, so each
    member is a distinct report site. *)

val new_ : loc:Loc.t -> ?init:(int -> unit) -> class_desc -> int
(** [operator new] + constructor chain; [init] runs as the most-derived
    constructor body.  Returns the object address. *)

val vptr : loc:Loc.t -> int -> int
(** Read the vptr — what a virtual call does before dispatching. *)

val get : loc:Loc.t -> class_desc -> int -> string -> int
val set : loc:Loc.t -> class_desc -> int -> string -> int -> unit

val delete_ : loc:Loc.t -> annotate:bool -> class_desc -> int -> unit
(** Destructor chain + [operator delete]; a no-op on the null address.
    With [annotate] (the instrumented build, Figure 4) a
    [VALGRIND_HG_DESTRUCT] request precedes the chain. *)
