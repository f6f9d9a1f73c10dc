(** Tree-walking interpreter: MiniC++ executes on the simulated VM.

    Compilation is modelled directly: objects live in VM memory with a
    vptr in slot 0, every field access is a VM read/write attributed to
    the source position that performed it, destructor chains write the
    vptr at each level (most-derived first) before the memory is freed,
    and the [ca_deletor_single] wrapper inserted by {!Annotate} issues
    the [VALGRIND_HG_DESTRUCT] client request.  Race reports therefore
    carry MiniC++ file/line stacks, exactly like Helgrind over
    debug-built C++. *)

open Ast
module Api = Raceguard_vm.Api

exception Runtime_error of string * Token.pos

let fail pos fmt = Fmt.kstr (fun m -> raise (Runtime_error (m, pos))) fmt

type value = Vint of int | Vstr of string

let as_int pos = function
  | Vint n -> n
  | Vstr s -> fail pos "expected an integer, got string %S" s

let as_str pos = function
  | Vstr s -> s
  | Vint n -> fail pos "expected a string, got integer %d" n

type t = {
  program : program;
  class_list : class_decl array;  (** vtable id = index + 1 *)
  mutable output : string list;  (** host-side stdout, reverse order *)
}

let create program =
  { program; class_list = Array.of_list (classes program); output = [] }

let output t = List.rev t.output

let vtable_id t name =
  let rec go i =
    if i >= Array.length t.class_list then invalid_arg ("unknown class " ^ name)
    else if t.class_list.(i).cls_name = name then i + 1
    else go (i + 1)
  in
  go 0

let class_of_vtable t id =
  if id < 1 || id > Array.length t.class_list then None else Some t.class_list.(id - 1)

let all_fields t c = List.concat_map (fun c -> c.cls_fields) (chain t.program c)
let obj_size t c = 1 + List.length (all_fields t c)

let field_offset t c f pos =
  let rec go i = function
    | [] -> fail pos "class %s has no field %s" c.cls_name f
    | x :: rest -> if x = f then i else go (i + 1) rest
  in
  go 1 (all_fields t c)

(* dynamic class of a live object: read its vptr *)
let dynamic_class t ~func addr pos =
  let vid = Api.read ~loc:(loc_of ~func pos) addr in
  match class_of_vtable t vid with
  | Some c -> c
  | None -> fail pos "value %d is not a live object (bad vptr %d)" addr vid

exception Return_of of value

type frame = {
  vars : (string, value) Hashtbl.t;
  this : int option;
  func : string;  (** for Loc attribution *)
}

let lookup fr name pos =
  match Hashtbl.find_opt fr.vars name with
  | Some v -> v
  | None -> fail pos "undefined variable %s" name

let rec eval t fr (e : expr) : value =
  let loc pos = loc_of ~func:fr.func pos in
  match e.e with
  | Int n -> Vint n
  | Str s -> Vstr s
  | Null -> Vint 0
  | Var name -> lookup fr name e.epos
  | This -> (
      match fr.this with
      | Some addr -> Vint addr
      | None -> fail e.epos "'this' outside of a method")
  | Field (o, f) ->
      let addr = as_int e.epos (eval t fr o) in
      if addr = 0 then fail e.epos "null dereference reading field %s" f;
      let c = dynamic_class t ~func:fr.func addr e.epos in
      Vint (Api.read ~loc:(loc e.epos) (addr + field_offset t c f e.epos))
  | Binop (op, a, b) -> eval_binop t fr op a b e.epos
  | Unop (Not, a) -> Vint (if as_int e.epos (eval t fr a) = 0 then 1 else 0)
  | Unop (Neg, a) -> Vint (-as_int e.epos (eval t fr a))
  | Call (name, args) -> eval_call t fr name args e.epos
  | Method_call (o, m, args) ->
      let addr = as_int e.epos (eval t fr o) in
      if addr = 0 then fail e.epos "null dereference calling method %s" m;
      let c = dynamic_class t ~func:fr.func addr e.epos in
      let f =
        match dispatch t.program c m with
        | Some f -> f
        | None -> fail e.epos "class %s has no method %s" c.cls_name m
      in
      let vargs = List.map (eval t fr) args in
      call_function t ~name:(method_frame c.cls_name m) ~this:(Some addr) f vargs e.epos
  | New cls_name -> (
      match find_class t.program cls_name with
      | None -> fail e.epos "unknown class %s" cls_name
      | Some c ->
          let addr = Api.alloc ~loc:(loc e.epos) (obj_size t c) in
          (* each constructor level installs its own vtable pointer *)
          List.iter
            (fun level ->
              Api.write ~loc:(loc_of ~func:(ctor_frame level.cls_name) e.epos) addr
                (vtable_id t level.cls_name))
            (chain t.program c);
          Vint addr)
  | Spawn (fname, args) -> (
      match find_function t.program fname with
      | None -> fail e.epos "spawn of unknown function %s" fname
      | Some f ->
          let vargs = List.map (eval t fr) args in
          let body () =
            ignore (call_function t ~name:fname ~this:None f vargs e.epos)
          in
          Vint (Api.spawn ~loc:(loc e.epos) ~name:fname body))
  | Deletor inner ->
      (* Figure 4: announce the destruction, then hand the pointer on *)
      let addr = as_int e.epos (eval t fr inner) in
      if addr <> 0 then begin
        let c = dynamic_class t ~func:deletor_frame addr e.epos in
        Api.hg_destruct ~addr ~len:(obj_size t c)
      end;
      Vint addr

and eval_binop t fr op a b pos =
  match op with
  | And -> if as_int pos (eval t fr a) = 0 then Vint 0 else eval t fr b
  | Or -> (
      match as_int pos (eval t fr a) with 0 -> eval t fr b | v -> Vint v)
  | _ ->
      let va = as_int pos (eval t fr a) and vb = as_int pos (eval t fr b) in
      let bool b = if b then 1 else 0 in
      Vint
        (match op with
        | Add -> va + vb
        | Sub -> va - vb
        | Mul -> va * vb
        | Div -> if vb = 0 then fail pos "division by zero" else va / vb
        | Mod -> if vb = 0 then fail pos "modulo by zero" else va mod vb
        | Eq -> bool (va = vb)
        | Neq -> bool (va <> vb)
        | Lt -> bool (va < vb)
        | Le -> bool (va <= vb)
        | Gt -> bool (va > vb)
        | Ge -> bool (va >= vb)
        | And | Or -> assert false)

and eval_call t fr name args pos =
  let loc = loc_of ~func:fr.func pos in
  let vargs () = List.map (eval t fr) args in
  let int1 () = match vargs () with [ v ] -> as_int pos v | _ -> fail pos "arity" in
  let int2 () =
    match vargs () with
    | [ a; b ] -> (as_int pos a, as_int pos b)
    | _ -> fail pos "arity"
  in
  match name with
  | "mutex" ->
      let n = match vargs () with [ v ] -> as_str pos v | _ -> fail pos "arity" in
      Vint (Api.Mutex.create ~loc n)
  | "mutex_lock" ->
      Api.Mutex.lock ~loc (int1 ());
      Vint 0
  | "mutex_unlock" ->
      Api.Mutex.unlock ~loc (int1 ());
      Vint 0
  | "rwlock" ->
      let n = match vargs () with [ v ] -> as_str pos v | _ -> fail pos "arity" in
      Vint (Api.Rwlock.create ~loc n)
  | "rdlock" ->
      Api.Rwlock.rdlock ~loc (int1 ());
      Vint 0
  | "wrlock" ->
      Api.Rwlock.wrlock ~loc (int1 ());
      Vint 0
  | "rw_unlock" ->
      Api.Rwlock.unlock ~loc (int1 ());
      Vint 0
  | "cond" ->
      let n = match vargs () with [ v ] -> as_str pos v | _ -> fail pos "arity" in
      Vint (Api.Cond.create ~loc n)
  | "cond_wait" ->
      let cv, m = int2 () in
      Api.Cond.wait ~loc cv m;
      Vint 0
  | "cond_signal" ->
      Api.Cond.signal ~loc (int1 ());
      Vint 0
  | "cond_broadcast" ->
      Api.Cond.broadcast ~loc (int1 ());
      Vint 0
  | "sem" ->
      let n, init =
        match vargs () with
        | [ a; b ] -> (as_str pos a, as_int pos b)
        | _ -> fail pos "arity"
      in
      Vint (Api.Sem.create ~loc ~init n)
  | "sem_wait" ->
      Api.Sem.wait ~loc (int1 ());
      Vint 0
  | "sem_post" ->
      Api.Sem.post ~loc (int1 ());
      Vint 0
  | "benign_race" ->
      let addr, len = int2 () in
      Api.benign_race ~addr ~len;
      Vint 0
  | "hb_before" ->
      Api.annotate_happens_before ~tag:(int1 ());
      Vint 0
  | "hb_after" ->
      Api.annotate_happens_after ~tag:(int1 ());
      Vint 0
  | "join" ->
      Api.join ~loc (int1 ());
      Vint 0
  | "yield" ->
      Api.yield ();
      Vint 0
  | "sleep" ->
      Api.sleep (int1 ());
      Vint 0
  | "now" -> Vint (Api.now ())
  | "self" -> Vint (Api.self ())
  | "random" -> Vint (Api.random_int (max 1 (int1 ())))
  | "print" ->
      let v = int1 () in
      t.output <- string_of_int v :: t.output;
      Vint 0
  | "print_str" ->
      let s = match vargs () with [ v ] -> as_str pos v | _ -> fail pos "arity" in
      t.output <- s :: t.output;
      Vint 0
  | "alloc" -> Vint (Api.alloc ~loc (max 1 (int1 ())))
  | "free" ->
      Api.free ~loc (int1 ());
      Vint 0
  | "load" -> Vint (Api.read ~loc (int1 ()))
  | "store" ->
      let a, v = int2 () in
      Api.write ~loc a v;
      Vint 0
  | "atomic_inc" -> Vint (Api.atomic_incr ~loc (int1 ()))
  | "atomic_dec" -> Vint (Api.atomic_decr ~loc (int1 ()))
  | "hg_destruct" ->
      let a, len = int2 () in
      Api.hg_destruct ~addr:a ~len;
      Vint 0
  | _ -> (
      match find_function t.program name with
      | Some f -> call_function t ~name ~this:None f (vargs ()) pos
      | None -> fail pos "unknown function %s" name)

and call_function t ~name ~this f vargs pos =
  if List.length f.fn_params <> List.length vargs then
    fail pos "%s expects %d argument(s), got %d" name (List.length f.fn_params)
      (List.length vargs);
  let fr = { vars = Hashtbl.create 8; this; func = name } in
  List.iter2 (fun p v -> Hashtbl.replace fr.vars p v) f.fn_params vargs;
  Api.with_frame (loc_of ~func:name f.fn_pos) @@ fun () ->
  try
    exec_stmts t fr f.fn_body;
    Vint 0
  with Return_of v -> v

and exec_stmts t fr body = List.iter (exec_stmt t fr) body

and exec_stmt t fr (s : stmt) =
  let loc pos = loc_of ~func:fr.func pos in
  match s.s with
  | Var_decl (name, e) -> Hashtbl.replace fr.vars name (eval t fr e)
  | Assign (Lvar name, e) ->
      if not (Hashtbl.mem fr.vars name) then fail s.spos "assignment to undefined variable %s" name;
      Hashtbl.replace fr.vars name (eval t fr e)
  | Assign (Lfield (o, f, fpos), e) ->
      let addr = as_int fpos (eval t fr o) in
      if addr = 0 then fail fpos "null dereference writing field %s" f;
      let c = dynamic_class t ~func:fr.func addr fpos in
      let v = as_int s.spos (eval t fr e) in
      Api.write ~loc:(loc fpos) (addr + field_offset t c f fpos) v
  | Expr e -> ignore (eval t fr e)
  | If (cond, a, b) ->
      if as_int s.spos (eval t fr cond) <> 0 then exec_stmts t fr a else exec_stmts t fr b
  | While (cond, body) ->
      while as_int s.spos (eval t fr cond) <> 0 do
        exec_stmts t fr body
      done
  | Return None -> raise (Return_of (Vint 0))
  | Return (Some e) -> raise (Return_of (eval t fr e))
  | Delete e ->
      let addr = as_int s.spos (eval t fr e) in
      if addr <> 0 then begin
        let c = dynamic_class t ~func:fr.func addr s.spos in
        (* destructor chain: most-derived first, each level writes its
           own vtable pointer then runs its body *)
        List.iter
          (fun level ->
            let dtor_name = dtor_frame level.cls_name in
            Api.write ~loc:(loc_of ~func:dtor_name s.spos) addr (vtable_id t level.cls_name);
            match level.cls_dtor with
            | None -> ()
            | Some body ->
                let dfr = { vars = Hashtbl.create 4; this = Some addr; func = dtor_name } in
                (try exec_stmts t dfr body with Return_of _ -> ()))
          (List.rev (chain t.program c));
        Api.free ~loc:(loc s.spos) addr
      end
  | Lock (m, body) ->
      let mid = as_int s.spos (eval t fr m) in
      Api.Mutex.with_lock ~loc:(loc s.spos) mid (fun () -> exec_stmts t fr body)
  | Block body -> exec_stmts t fr body

(** Execute the program's [main] (call from inside a VM thread). *)
let run_main t =
  match find_function t.program "main" with
  | None -> invalid_arg "program has no main"
  | Some f -> ignore (call_function t ~name:"main" ~this:None f [] f.fn_pos)

(* ------------------------------------------------------------------ *)
(* Build pipeline helpers                                              *)
(* ------------------------------------------------------------------ *)

(** The full Figure-3 pipeline on a source string: preprocess, parse,
    check, optionally annotate.  Returns the executable program, the
    (possibly annotated) pretty-printed source, and the number of
    deletes annotated. *)
let compile ?(annotate = true) ~file src =
  let ast = Preprocess.parse (Preprocess.with_builtins ()) ~file src in
  Check.check ast;
  let ast, n_annotated = if annotate then Annotate.annotate ast else (ast, 0) in
  let header =
    if annotate then "// instrumented build\n#include \"valgrind/helgrind.h\"" else ""
  in
  (create ast, Pretty.program ~header_comment:header ast, n_annotated)
