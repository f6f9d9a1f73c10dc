(** The C++ object model, reduced to its memory behaviour.

    What matters for race detection is not C++ syntax but the memory
    access patterns the compiled code performs.  Two of them are the
    sources of the paper's dominant false-positive class (§4.2.1):

    - {b construction}: each constructor in the chain (base first, then
      derived) writes the object's vptr slot to its own class's vtable
      before running its body;
    - {b destruction}: each destructor in the chain (most-derived
      first, then bases) {e writes the vptr back} to its own class's
      vtable — "the destructor of the super-class should only see the
      properties of its class and therefore the environment has to be
      changed" — then runs its body, and finally the memory is
      released.

    Those vptr writes are plain unsynchronised stores into memory that
    is typically in a SHARED state, so Helgrind warns.  The paper's DR
    improvement wraps every [delete] so that a [VALGRIND_HG_DESTRUCT]
    client request marks the memory exclusive first; [delete_]
    reproduces exactly that (Figure 4) behind the [~annotate] switch
    (the build-time instrumentation toggle). *)

module Loc = Raceguard_util.Loc
module Api = Raceguard_vm.Api

type class_desc = {
  cls_name : string;
  parent : class_desc option;
  own_fields : string list;
  dtor_body : (t -> int -> unit) option;
      (** user-written destructor body for this level; receives the
          class (for field access) and the object address *)
}

and t = class_desc

(* vtable ids: one per class name, numbered from 1 in first-use order
   within each VM run.  Constructors and destructors write them into
   object memory, so numbering per run keeps a run's memory values, and
   the trace bytes that record them, independent of what ran before it
   on the same domain.  The table is domain-local (the multicore pool
   runs cells on several domains, and a shared Hashtbl would race) and
   starts afresh when [Engine.run_id] moves on. *)
type vtables = { mutable run : int; mutable next_vtable : int; vtable_ids : (string, int) Hashtbl.t }

let vtables_key : vtables Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { run = -1; next_vtable = 1; vtable_ids = Hashtbl.create 64 })

let vtable_id cls =
  let vt = Domain.DLS.get vtables_key in
  let run = Raceguard_vm.Engine.run_id () in
  if vt.run <> run then begin
    vt.run <- run;
    vt.next_vtable <- 1;
    Hashtbl.reset vt.vtable_ids
  end;
  match Hashtbl.find_opt vt.vtable_ids cls.cls_name with
  | Some id -> id
  | None ->
      let id = vt.next_vtable in
      vt.next_vtable <- id + 1;
      Hashtbl.replace vt.vtable_ids cls.cls_name id;
      id

(** Define a class.  [parent] gives single inheritance. *)
let define ?parent ?dtor_body ~name ~fields () =
  { cls_name = name; parent; own_fields = fields; dtor_body }

let rec chain cls = match cls.parent with None -> [ cls ] | Some p -> chain p @ [ cls ]
(** base-most first *)

let all_fields cls = List.concat_map (fun c -> c.own_fields) (chain cls)

(** object size in words: one vptr slot + all fields *)
let size cls = 1 + List.length (all_fields cls)

(** word offset of a field within the object (vptr is slot 0) *)
let field_offset cls name =
  let rec go i = function
    | [] -> Fmt.invalid_arg "field %S not found in class %s" name cls.cls_name
    | f :: rest -> if f = name then i else go (i + 1) rest
  in
  go 1 (all_fields cls)

(* ------------------------------------------------------------------ *)
(* new / delete                                                        *)
(* ------------------------------------------------------------------ *)

(** [operator new] + constructor chain: allocate, then let each level
    base→derived install its vtable pointer and zero its own fields.
    [init] runs as the most-derived constructor body. *)
let new_ ~loc ?(init = fun _ -> ()) cls =
  let addr = Api.alloc ~loc (size cls) in
  List.iter
    (fun level ->
      (* each constructor level rewrites the vptr to its own vtable *)
      Api.write ~loc:{ loc with Loc.func = level.cls_name ^ "::" ^ level.cls_name } addr
        (vtable_id level))
    (chain cls);
  init addr;
  addr

(** Read the vptr — what a virtual call does before dispatching. *)
let vptr ~loc addr = Api.read ~loc addr

let get ~loc cls addr field = Api.read ~loc (addr + field_offset cls field)
let set ~loc cls addr field v = Api.write ~loc (addr + field_offset cls field) v

(** Helper for writing destructor bodies: release each ref-counted
    string field and scrub each plain field, giving every access its
    own source line — compiled destructors touch each member at a
    distinct instruction, so each member is a distinct report site. *)
let scrub ~file ~base_line cls obj ~strings ~ints =
  List.iteri
    (fun i f ->
      let loc = Raceguard_util.Loc.v file (cls.cls_name ^ "::~" ^ cls.cls_name) (base_line + i) in
      let s = get ~loc cls obj f in
      if s <> 0 then Refstring.release s)
    strings;
  List.iteri
    (fun i f ->
      let loc =
        Raceguard_util.Loc.v file
          (cls.cls_name ^ "::~" ^ cls.cls_name)
          (base_line + List.length strings + i)
      in
      set ~loc cls obj f 0)
    ints

(** Destructor chain + [operator delete].

    [annotate = true] corresponds to compiling with the paper's
    automatic source instrumentation: the argument is passed through a
    [ca_deletor_single]-style helper that issues [VALGRIND_HG_DESTRUCT]
    before any destructor runs (Figure 4).  With [annotate = false]
    (the uninstrumented build) the vptr writes below hit memory still
    in a shared state and each becomes a spurious race report. *)
let delete_ ~loc ~annotate cls addr =
  if addr <> 0 then begin
    if annotate then Api.hg_destruct ~addr ~len:(size cls);
    List.iter
      (fun level ->
        let dloc = { loc with Loc.func = level.cls_name ^ "::~" ^ level.cls_name } in
        (* entering this destructor level: the object's dynamic type
           reverts to this class — write the vptr *)
        Api.write ~loc:dloc addr (vtable_id level);
        match level.dtor_body with None -> () | Some body -> body level addr)
      (List.rev (chain cls));
    Api.free ~loc addr
  end
