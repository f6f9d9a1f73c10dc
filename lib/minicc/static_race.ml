(** Static lockset & thread-escape analysis for MiniC++.

    A lightweight interprocedural companion to the dynamic Helgrind
    detector, in the spirit of RacerF (Dacík & Vojnar 2025): instead of
    watching one schedule execute, it walks the AST once per thread
    root and computes

    - {b must-held locksets} per access, propagated through calls
      (bounded inlining, conservative intersection at joins), with the
      paper's HWLC bus lock modelled as an implicit lock held for
      reading by every read and for writing by bus-locked RMWs;
    - {b fork-join ordering}: every access carries the window of thread
      spawns it can overlap (sequence numbers against spawn points,
      sets of surely-joined threads), so initialisation before [spawn]
      and tear-down after [join] do not produce false races;
    - {b thread escape}: which allocation sites can be reached by more
      than one thread — the transitive closure of spawn arguments
      through the heap points-to map.

    Conflicting concurrent accesses to an escaping site whose static
    locksets have an empty intersection become warnings carrying
    [Loc.t] stacks built exactly like the interpreter's dynamic frames,
    so static and dynamic findings can be matched by signature.  The
    same facts are exported the other two ways the paper uses them:
    suppressions for consistently-guarded accesses (§2.3.1, generated
    instead of hand-written) and thread-locality hints that let the
    dynamic detector's shadow fast path skip provably-local words.

    {b Soundness trade-offs} (DESIGN.md §10): allocation sites abstract
    all their instances, locks are identified by creation site,
    recursion and deep call chains are truncated with havoc, and
    condition-variable / semaphore / HB ordering is ignored (like the
    dynamic lockset algorithm).  The analysis is neither sound nor
    complete — it is a lint. *)

open Ast
module Loc = Raceguard_util.Loc
module Report = Raceguard_detector.Report
module Suppression = Raceguard_detector.Suppression
module Json = Raceguard_obs.Json
module SMap = Map.Make (String)
module ISet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Abstract domain                                                     *)
(* ------------------------------------------------------------------ *)

(** Abstract values: allocation sites, lock creation sites, thread
    handles (by root id), primitives, and the unknown top. *)
type av = Obj of int | Lockv of int | Tidv of int | Prim | Unknown

module Vset = Set.Make (struct
  type t = av

  let compare = compare
end)

let v_prim = Vset.singleton Prim
let v_unknown = Vset.singleton Unknown

(** The implicit HWLC bus lock (held for reading by every read, for
    writing by LOCK-prefixed RMWs); never a real site id. *)
let bus = -1

type site = {
  site_id : int;
  site_loc : Loc.t;
  site_desc : string;  (** ["new Counter"], ["alloc"], ["mutex"], ... *)
  site_cls : string option;  (** class of [new] sites, for dispatch *)
  site_alloc : bool;  (** a memory allocation (hint candidate) *)
}

(* ------------------------------------------------------------------ *)
(* Thread roots and access records                                     *)
(* ------------------------------------------------------------------ *)

type root = {
  r_id : int;
  r_fname : string;
  r_parent : int;  (** -1 for main *)
  r_spawn_site : Loc.t option;
  mutable r_args : Vset.t list;
  mutable r_spawn_seq : int;  (** on the spawning root's timeline *)
  mutable r_prior_joined : ISet.t;  (** roots surely joined before this spawn *)
  mutable r_multi : bool;  (** spawn site can execute more than once *)
  mutable r_final_joined : ISet.t;  (** roots surely joined when this root ends *)
  mutable r_walked : bool;
}

type acc_kind = Aread | Awrite

type access = {
  a_kind : acc_kind;
  a_site : int;
  a_field : string;
  a_stack : Loc.t list;  (** innermost first, mirrors the dynamic frames *)
  a_pos : Token.pos;  (** precise span (line *and* column) of the access *)
  a_locks : ISet.t;  (** protecting set ([bus] included where it applies) *)
  a_root : int;
  mutable a_seq_lo : int;
  mutable a_seq_hi : int;
  mutable a_joined : ISet.t;  (** roots surely joined at every occurrence *)
}

type ctx = {
  program : program;
  cg : Callgraph.t;
  site_tbl : (string, site) Hashtbl.t;
  mutable sites : site list;  (** reverse creation order; ids stable across passes *)
  mutable next_site : int;
  heap : (int * string, Vset.t) Hashtbl.t;  (** flow-insensitive (site, field) map *)
  mutable changed : bool;  (** heap or root-arg growth since pass start *)
  root_tbl : (string, root) Hashtbl.t;
  mutable roots : root list;  (** reverse creation order *)
  root_by_id : (int, root) Hashtbl.t;
  acc_tbl : (string, access) Hashtbl.t;
  mutable accs : access list;  (** reverse first-seen order *)
  mutable seq : int;
  mutable escape_seeds : ISet.t;  (** sites stored through unknown pointers *)
  mutable benign_sites : ISet.t;  (** sites covered by [benign_race] *)
  mutable truncated : bool;  (** some bound was hit; results are partial *)
}

let max_inline_depth = 12
let max_loop_iters = 4
let max_passes = 6

let root_of ctx id = Hashtbl.find ctx.root_by_id id

let site ctx ~loc ~desc ~cls ~alloc =
  let key = Fmt.str "%s|%s|%d|%s" loc.Loc.file loc.Loc.func loc.Loc.line desc in
  match Hashtbl.find_opt ctx.site_tbl key with
  | Some s -> s
  | None ->
      let s =
        { site_id = ctx.next_site; site_loc = loc; site_desc = desc; site_cls = cls;
          site_alloc = alloc }
      in
      ctx.next_site <- ctx.next_site + 1;
      Hashtbl.add ctx.site_tbl key s;
      ctx.sites <- s :: ctx.sites;
      s

let site_by_id ctx id = List.find (fun s -> s.site_id = id) ctx.sites

let heap_get ctx s f =
  Option.value ~default:Vset.empty (Hashtbl.find_opt ctx.heap (s, f))

let heap_add ctx s f v =
  let old = heap_get ctx s f in
  let nv = Vset.union old v in
  if not (Vset.equal nv old) then begin
    Hashtbl.replace ctx.heap (s, f) nv;
    ctx.changed <- true
  end

let obj_sites v =
  Vset.fold (fun x acc -> match x with Obj s -> ISet.add s acc | _ -> acc) v ISet.empty

(* ------------------------------------------------------------------ *)
(* The abstract walk                                                   *)
(* ------------------------------------------------------------------ *)

(** Flow-sensitive per-path state. [env] is may-points-to; the held
    sets are must-locksets (intersection at merges); [joined] is the
    must-set of surely-joined roots. *)
type st = {
  env : Vset.t SMap.t;
  held_any : ISet.t;
  held_write : ISet.t;
  joined : ISet.t;
}

let join_st a b =
  {
    env = SMap.union (fun _ x y -> Some (Vset.union x y)) a.env b.env;
    held_any = ISet.inter a.held_any b.held_any;
    held_write = ISet.inter a.held_write b.held_write;
    joined = ISet.inter a.joined b.joined;
  }

let st_equal a b =
  SMap.equal Vset.equal a.env b.env
  && ISet.equal a.held_any b.held_any
  && ISet.equal a.held_write b.held_write
  && ISet.equal a.joined b.joined

type frame = {
  fr_func : string;  (** for access attribution, like [Interp.frame.func] *)
  fr_stack : Loc.t list;  (** function-entry locs, innermost first *)
  fr_this : Vset.t;
  fr_root : root;
  fr_depth : int;
  fr_calls : string list;  (** node names on the inline chain (cycle cut) *)
  fr_ret : Vset.t ref;
}

let render_iset s = String.concat "," (List.map string_of_int (ISet.elements s))
let render_stack st = String.concat ";" (List.map Loc.to_string st)

(* Record one access (deduplicated on everything but the sequence
   window, which merges). *)
let add_access ctx fr st ~kind ~vobj ~field ~loc ~pos ~atomic =
  ctx.seq <- ctx.seq + 1;
  let seq = ctx.seq in
  let locks =
    match kind with
    | Aread -> ISet.add bus st.held_any
    | Awrite -> if atomic then ISet.add bus st.held_write else st.held_write
  in
  let stack = loc :: fr.fr_stack in
  Vset.iter
    (function
      | Obj s ->
          let key =
            Fmt.str "%d|%d|%s|%s|%d|%s|%s" fr.fr_root.r_id s field
              (match kind with Aread -> "r" | Awrite -> "w")
              pos.Token.col (render_stack stack) (render_iset locks)
          in
          (match Hashtbl.find_opt ctx.acc_tbl key with
          | Some a ->
              a.a_seq_lo <- min a.a_seq_lo seq;
              a.a_seq_hi <- max a.a_seq_hi seq;
              a.a_joined <- ISet.inter a.a_joined st.joined
          | None ->
              let a =
                { a_kind = kind; a_site = s; a_field = field; a_stack = stack;
                  a_pos = pos; a_locks = locks; a_root = fr.fr_root.r_id;
                  a_seq_lo = seq; a_seq_hi = seq; a_joined = st.joined }
              in
              Hashtbl.add ctx.acc_tbl key a;
              ctx.accs <- a :: ctx.accs)
      | _ -> ())
    vobj

let singleton_of v pick =
  match Vset.elements (Vset.filter (fun x -> pick x <> None) v) with
  | [ x ] -> pick x
  | _ -> None

let rec eval ctx fr st (e : expr) : st * Vset.t =
  let loc pos = loc_of ~func:fr.fr_func pos in
  match e.e with
  | Int _ | Str _ | Null -> (st, v_prim)
  | Var name -> (st, Option.value ~default:v_unknown (SMap.find_opt name st.env))
  | This -> (st, fr.fr_this)
  | Field (o, f) ->
      let st, vo = eval ctx fr st o in
      (* [dynamic_class] reads the vptr, then the field is read *)
      add_access ctx fr st ~kind:Aread ~vobj:vo ~field:"<vptr>" ~loc:(loc e.epos)
        ~pos:e.epos ~atomic:false;
      add_access ctx fr st ~kind:Aread ~vobj:vo ~field:f ~loc:(loc e.epos) ~pos:e.epos
        ~atomic:false;
      let v =
        ISet.fold (fun s acc -> Vset.union acc (heap_get ctx s f)) (obj_sites vo) Vset.empty
      in
      let v = if Vset.mem Unknown vo then Vset.add Unknown v else v in
      (st, if Vset.is_empty v then v_prim else v)
  | Binop ((And | Or), a, b) ->
      (* the right operand may be skipped at runtime *)
      let st1, _ = eval ctx fr st a in
      let st2, _ = eval ctx fr st1 b in
      (join_st st1 st2, v_prim)
  | Binop (_, a, b) ->
      let st, _ = eval ctx fr st a in
      let st, _ = eval ctx fr st b in
      (st, v_prim)
  | Unop (_, a) ->
      let st, _ = eval ctx fr st a in
      (st, v_prim)
  | Call (name, args) -> eval_call ctx fr st name args e.epos
  | Method_call (o, m, args) ->
      let st, vo = eval ctx fr st o in
      add_access ctx fr st ~kind:Aread ~vobj:vo ~field:"<vptr>" ~loc:(loc e.epos)
        ~pos:e.epos ~atomic:false;
      let st, vargs = eval_list ctx fr st args in
      (* dispatch per possible dynamic class *)
      let classes_of =
        let known =
          ISet.fold
            (fun s acc ->
              match (site_by_id ctx s).site_cls with Some c -> c :: acc | None -> acc)
            (obj_sites vo) []
        in
        if Vset.mem Unknown vo || known = [] then
          List.map (fun (c, _) -> c.cls_name) (definitions_of ctx.program m)
        else known
      in
      let this_ = Vset.filter (function Obj _ | Unknown -> true | _ -> false) vo in
      List.fold_left
        (fun (acc_st, acc_v) cname ->
          match find_class ctx.program cname with
          | None -> (acc_st, acc_v)
          | Some c -> (
              match dispatch ctx.program c m with
              | None -> (acc_st, acc_v)
              | Some f ->
                  let st', v =
                    inline_call ctx fr st ~name:(method_frame cname m)
                      ~node:(Callgraph.Method (cname, m)) ~this:this_ f vargs
                  in
                  (join_st acc_st st', Vset.union acc_v v)))
        (st, Vset.empty) classes_of
      |> fun (st, v) -> (st, if Vset.is_empty v then v_prim else v)
  | New cls_name -> (
      match find_class ctx.program cls_name with
      | None -> (st, v_unknown)
      | Some c ->
          let s =
            site ctx ~loc:(loc e.epos) ~desc:("new " ^ cls_name) ~cls:(Some cls_name)
              ~alloc:true
          in
          let vo = Vset.singleton (Obj s.site_id) in
          (* each constructor level writes its own vtable pointer *)
          List.iter
            (fun level ->
              add_access ctx fr st ~kind:Awrite ~vobj:vo ~field:"<vptr>"
                ~loc:(loc_of ~func:(ctor_frame level.cls_name) e.epos)
                ~pos:e.epos ~atomic:false)
            (chain ctx.program c);
          (st, vo))
  | Spawn (fname, args) ->
      let st, vargs = eval_list ctx fr st args in
      ctx.seq <- ctx.seq + 1;
      let spawn_seq = ctx.seq in
      let key =
        Fmt.str "%s|%d|%s|%s" e.epos.Token.file e.epos.Token.line fname
          (render_stack fr.fr_stack)
      in
      let r =
        match Hashtbl.find_opt ctx.root_tbl key with
        | Some r ->
            (* the same spawn site executed again in this pass: the
               thread may have multiple concurrent instances *)
            r.r_multi <- true;
            r.r_spawn_seq <- min r.r_spawn_seq spawn_seq;
            r.r_prior_joined <- ISet.inter r.r_prior_joined st.joined;
            let args' =
              if List.length r.r_args = List.length vargs then
                List.map2 Vset.union r.r_args vargs
              else vargs
            in
            if not (List.for_all2 Vset.equal args' r.r_args) then begin
              r.r_args <- args';
              if r.r_walked then ctx.changed <- true
            end;
            r
        | None ->
            let r =
              { r_id = List.length ctx.roots; r_fname = fname;
                r_parent = fr.fr_root.r_id; r_spawn_site = Some (loc e.epos);
                r_args = vargs; r_spawn_seq = spawn_seq; r_prior_joined = st.joined;
                r_multi = false; r_final_joined = ISet.empty; r_walked = false }
            in
            Hashtbl.add ctx.root_tbl key r;
            Hashtbl.add ctx.root_by_id r.r_id r;
            ctx.roots <- r :: ctx.roots;
            r
      in
      (st, Vset.singleton (Tidv r.r_id))
  | Deletor inner ->
      let st, vi = eval ctx fr st inner in
      (* the deletor wrapper reads the vptr under its own name *)
      add_access ctx fr st ~kind:Aread ~vobj:vi ~field:"<vptr>"
        ~loc:(loc_of ~func:deletor_frame e.epos) ~pos:e.epos ~atomic:false;
      (st, vi)

and eval_list ctx fr st args =
  List.fold_left
    (fun (st, acc) a ->
      let st, v = eval ctx fr st a in
      (st, acc @ [ v ]))
    (st, []) args

and eval_call ctx fr st name args pos =
  let loc = loc_of ~func:fr.fr_func pos in
  let with_args k =
    let st, vargs = eval_list ctx fr st args in
    k st vargs
  in
  let lockv st vargs = match vargs with [ v ] -> singleton_of v (function Lockv l -> Some l | _ -> None) | _ -> ignore st; None in
  match name with
  | "mutex" ->
      with_args (fun st _ ->
          let s = site ctx ~loc ~desc:"mutex" ~cls:None ~alloc:false in
          (st, Vset.singleton (Lockv s.site_id)))
  | "rwlock" ->
      with_args (fun st _ ->
          let s = site ctx ~loc ~desc:"rwlock" ~cls:None ~alloc:false in
          (st, Vset.singleton (Lockv s.site_id)))
  | "mutex_lock" ->
      with_args (fun st vargs ->
          match lockv st vargs with
          | Some l ->
              ( { st with held_any = ISet.add l st.held_any;
                  held_write = ISet.add l st.held_write },
                v_prim )
          | None -> (st, v_prim))
  | "mutex_unlock" | "rw_unlock" ->
      with_args (fun st vargs ->
          match lockv st vargs with
          | Some l ->
              ( { st with held_any = ISet.remove l st.held_any;
                  held_write = ISet.remove l st.held_write },
                v_prim )
          | None ->
              (* releasing an unknown lock: drop must-held info *)
              ({ st with held_any = ISet.empty; held_write = ISet.empty }, v_prim))
  | "rdlock" ->
      with_args (fun st vargs ->
          match lockv st vargs with
          | Some l -> ({ st with held_any = ISet.add l st.held_any }, v_prim)
          | None -> (st, v_prim))
  | "wrlock" ->
      with_args (fun st vargs ->
          match lockv st vargs with
          | Some l ->
              ( { st with held_any = ISet.add l st.held_any;
                  held_write = ISet.add l st.held_write },
                v_prim )
          | None -> (st, v_prim))
  | "join" ->
      with_args (fun st vargs ->
          match vargs with
          | [ v ] -> (
              match singleton_of v (function Tidv r -> Some r | _ -> None) with
              | Some r -> ({ st with joined = ISet.add r st.joined }, v_prim)
              | None -> (st, v_prim))
          | _ -> (st, v_prim))
  | "alloc" ->
      with_args (fun st _ ->
          let s = site ctx ~loc ~desc:"alloc" ~cls:None ~alloc:true in
          (st, Vset.singleton (Obj s.site_id)))
  | "load" ->
      with_args (fun st vargs ->
          match vargs with
          | [ vp ] ->
              add_access ctx fr st ~kind:Aread ~vobj:vp ~field:"[]" ~loc ~pos
                ~atomic:false;
              let v =
                ISet.fold
                  (fun s acc -> Vset.union acc (heap_get ctx s "[]"))
                  (obj_sites vp) Vset.empty
              in
              (st, if Vset.is_empty v then v_prim else v)
          | _ -> (st, v_prim))
  | "store" ->
      with_args (fun st vargs ->
          match vargs with
          | [ vp; vv ] ->
              add_access ctx fr st ~kind:Awrite ~vobj:vp ~field:"[]" ~loc ~pos
                ~atomic:false;
              ISet.iter (fun s -> heap_add ctx s "[]" vv) (obj_sites vp);
              if Vset.mem Unknown vp then
                ctx.escape_seeds <- ISet.union ctx.escape_seeds (obj_sites vv);
              (st, v_prim)
          | _ -> (st, v_prim))
  | "atomic_inc" | "atomic_dec" ->
      with_args (fun st vargs ->
          match vargs with
          | [ vp ] ->
              add_access ctx fr st ~kind:Aread ~vobj:vp ~field:"[]" ~loc ~pos ~atomic:true;
              add_access ctx fr st ~kind:Awrite ~vobj:vp ~field:"[]" ~loc ~pos ~atomic:true;
              (st, v_prim)
          | _ -> (st, v_prim))
  | "benign_race" ->
      with_args (fun st vargs ->
          (match vargs with
          | vp :: _ -> ctx.benign_sites <- ISet.union ctx.benign_sites (obj_sites vp)
          | [] -> ());
          (st, v_prim))
  | "free" | "hg_destruct" | "cond" | "cond_wait" | "cond_signal" | "cond_broadcast"
  | "sem" | "sem_wait" | "sem_post" | "hb_before" | "hb_after" | "yield" | "sleep"
  | "now" | "self" | "random" | "print" | "print_str" ->
      with_args (fun st _ -> (st, v_prim))
  | _ -> (
      match find_function ctx.program name with
      | Some f ->
          with_args (fun st vargs ->
              inline_call ctx fr st ~name ~node:(Callgraph.Func name) ~this:Vset.empty f
                vargs)
      | None -> with_args (fun st _ -> (st, v_unknown)))

(* Inline a call, bounded by depth and by the call string (recursion).
   A call we refuse to inline is havocked: its result is unknown, and
   if it may use unbalanced lock primitives the caller's must-held sets
   are cleared. *)
and inline_call ctx fr st ~name ~node ~this f vargs =
  if fr.fr_depth >= max_inline_depth || List.mem name fr.fr_calls then begin
    ctx.truncated <- true;
    let st =
      if Callgraph.may_alter_locks ctx.cg node then
        { st with held_any = ISet.empty; held_write = ISet.empty }
      else st
    in
    (st, v_unknown)
  end
  else if List.length f.fn_params <> List.length vargs then (st, v_unknown)
  else begin
    let entry = loc_of ~func:name f.fn_pos in
    let fr' =
      { fr_func = name; fr_stack = entry :: fr.fr_stack; fr_this = this;
        fr_root = fr.fr_root; fr_depth = fr.fr_depth + 1;
        fr_calls = name :: fr.fr_calls; fr_ret = ref Vset.empty }
    in
    let env =
      List.fold_left2 (fun m p v -> SMap.add p v m) SMap.empty f.fn_params vargs
    in
    let st' = walk_stmts ctx fr' { st with env } f.fn_body in
    let ret = !(fr'.fr_ret) in
    ({ st' with env = st.env }, if Vset.is_empty ret then v_prim else ret)
  end

and walk_stmts ctx fr st body = List.fold_left (walk_stmt ctx fr) st body

and walk_stmt ctx fr st (s : stmt) : st =
  let loc pos = loc_of ~func:fr.fr_func pos in
  match s.s with
  | Var_decl (name, e) | Assign (Lvar name, e) ->
      let st, v = eval ctx fr st e in
      { st with env = SMap.add name v st.env }
  | Assign (Lfield (o, f, fpos), e) ->
      let st, vo = eval ctx fr st o in
      add_access ctx fr st ~kind:Aread ~vobj:vo ~field:"<vptr>" ~loc:(loc fpos) ~pos:fpos
        ~atomic:false;
      let st, vv = eval ctx fr st e in
      add_access ctx fr st ~kind:Awrite ~vobj:vo ~field:f ~loc:(loc fpos) ~pos:fpos
        ~atomic:false;
      ISet.iter (fun si -> heap_add ctx si f vv) (obj_sites vo);
      if Vset.mem Unknown vo then
        ctx.escape_seeds <- ISet.union ctx.escape_seeds (obj_sites vv);
      st
  | Expr e ->
      let st, _ = eval ctx fr st e in
      st
  | If (c, a, b) ->
      let st, _ = eval ctx fr st c in
      let sa = walk_stmts ctx fr st a in
      let sb = walk_stmts ctx fr st b in
      join_st sa sb
  | While (c, body) ->
      let st0, _ = eval ctx fr st c in
      let rec fix acc i =
        if i >= max_loop_iters then begin
          ctx.truncated <- true;
          acc
        end
        else
          let st1 = walk_stmts ctx fr acc body in
          let st1, _ = eval ctx fr st1 c in
          let j = join_st acc st1 in
          if st_equal j acc then acc else fix j (i + 1)
      in
      fix st0 0
  | Return None -> st
  | Return (Some e) ->
      let st, v = eval ctx fr st e in
      fr.fr_ret := Vset.union !(fr.fr_ret) v;
      st
  | Delete e ->
      let st, ve = eval ctx fr st e in
      add_access ctx fr st ~kind:Aread ~vobj:ve ~field:"<vptr>" ~loc:(loc s.spos)
        ~pos:s.spos ~atomic:false;
      (* destructor chain, most-derived first: each level writes its
         vptr, then runs its body with no extra stack frame (the
         interpreter does not push one either) *)
      ISet.fold
        (fun si st ->
          match (site_by_id ctx si).site_cls with
          | None -> st
          | Some cname -> (
              match find_class ctx.program cname with
              | None -> st
              | Some c ->
                  let vo = Vset.singleton (Obj si) in
                  List.fold_left
                    (fun st level ->
                      let dtor_name = dtor_frame level.cls_name in
                      add_access ctx fr st ~kind:Awrite ~vobj:vo ~field:"<vptr>"
                        ~loc:(loc_of ~func:dtor_name s.spos) ~pos:s.spos ~atomic:false;
                      match level.cls_dtor with
                      | None -> st
                      | Some body ->
                          if
                            fr.fr_depth >= max_inline_depth
                            || List.mem dtor_name fr.fr_calls
                          then begin
                            ctx.truncated <- true;
                            st
                          end
                          else
                            let fr' =
                              { fr with fr_func = dtor_name; fr_this = vo;
                                fr_depth = fr.fr_depth + 1;
                                fr_calls = dtor_name :: fr.fr_calls;
                                fr_ret = ref Vset.empty }
                            in
                            let st' = walk_stmts ctx fr' { st with env = SMap.empty } body in
                            { st' with env = st.env })
                    st
                    (List.rev (chain ctx.program c))))
        (obj_sites ve) st
  | Lock (m, body) ->
      let st1, vm = eval ctx fr st m in
      let held =
        match singleton_of vm (function Lockv l -> Some l | _ -> None) with
        | Some l -> Some l
        | None -> None
      in
      let st_in =
        match held with
        | Some l ->
            { st1 with held_any = ISet.add l st1.held_any;
              held_write = ISet.add l st1.held_write }
        | None -> st1
      in
      let st_out = walk_stmts ctx fr st_in body in
      (* scoped: the caller's held sets are restored on exit *)
      { st_out with held_any = st1.held_any; held_write = st1.held_write }
  | Block body -> walk_stmts ctx fr st body

(* ------------------------------------------------------------------ *)
(* Per-pass driver                                                     *)
(* ------------------------------------------------------------------ *)

let walk_root ctx r =
  r.r_walked <- true;
  match find_function ctx.program r.r_fname with
  | None -> ()
  | Some f ->
      let entry = loc_of ~func:r.r_fname f.fn_pos in
      (* mirror the engine's initial thread frames: the root thread
         starts at [main (<vm>:0)], a spawned thread at its spawn
         site (engine.ml's thread creation) *)
      let base =
        match r.r_spawn_site with
        | None -> [ Loc.v "<vm>" "main" 0 ]
        | Some sp -> [ sp ]
      in
      let fr =
        { fr_func = r.r_fname; fr_stack = entry :: base; fr_this = Vset.empty; fr_root = r;
          fr_depth = 0; fr_calls = [ r.r_fname ]; fr_ret = ref Vset.empty }
      in
      let args =
        if List.length r.r_args = List.length f.fn_params then r.r_args
        else List.map (fun _ -> v_unknown) f.fn_params
      in
      let env =
        List.fold_left2 (fun m p v -> SMap.add p v m) SMap.empty f.fn_params args
      in
      let st =
        walk_stmts ctx fr
          { env; held_any = ISet.empty; held_write = ISet.empty; joined = ISet.empty }
          f.fn_body
      in
      r.r_final_joined <- st.joined

let run_pass ctx =
  Hashtbl.reset ctx.root_tbl;
  Hashtbl.reset ctx.root_by_id;
  Hashtbl.reset ctx.acc_tbl;
  ctx.roots <- [];
  ctx.accs <- [];
  ctx.seq <- 0;
  ctx.escape_seeds <- ISet.empty;
  ctx.benign_sites <- ISet.empty;
  let main_root =
    { r_id = 0; r_fname = "main"; r_parent = -1; r_spawn_site = None; r_args = [];
      r_spawn_seq = 0; r_prior_joined = ISet.empty; r_multi = false;
      r_final_joined = ISet.empty; r_walked = false }
  in
  Hashtbl.add ctx.root_by_id 0 main_root;
  ctx.roots <- [ main_root ];
  let rec drain () =
    match List.find_opt (fun r -> not r.r_walked) (List.rev ctx.roots) with
    | None -> ()
    | Some r ->
        walk_root ctx r;
        drain ()
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Concurrency between access windows                                  *)
(* ------------------------------------------------------------------ *)

(* Roots surely finished given a must-joined set: the closure of
   [joined] under each root's own final joins.  A multi-instance root
   is never surely finished — [join] only pins one of its instances. *)
let quiesced ctx joined =
  let rec go acc = function
    | [] -> acc
    | rid :: rest ->
        if ISet.mem rid acc then go acc rest
        else
          let r = root_of ctx rid in
          if r.r_multi then go acc rest
          else go (ISet.add rid acc) (ISet.elements r.r_final_joined @ rest)
  in
  go ISet.empty (ISet.elements joined)

let rec ancestor_ids ctx rid = if rid < 0 then [] else rid :: ancestor_ids ctx (root_of ctx rid).r_parent

(* the child of [anc] on [desc]'s ancestor chain *)
let lift_to_child ctx ~anc ~desc =
  let rec go rid =
    let r = root_of ctx rid in
    if r.r_parent = anc then Some r else if r.r_parent < 0 then None else go r.r_parent
  in
  go desc

(* An access in an ancestor root vs. any access in a descendant's
   subtree: concurrent iff the access window can overlap the
   descendant's lifetime. *)
let conc_with_descendant ctx (a : access) desc_root =
  match lift_to_child ctx ~anc:a.a_root ~desc:desc_root with
  | None -> true (* shouldn't happen; stay conservative *)
  | Some c ->
      a.a_seq_hi >= c.r_spawn_seq && not (ISet.mem desc_root (quiesced ctx a.a_joined))

let concurrent ctx (a : access) (b : access) =
  if a.a_root = b.a_root then (root_of ctx a.a_root).r_multi
  else
    let anc_a = ancestor_ids ctx a.a_root and anc_b = ancestor_ids ctx b.a_root in
    if List.mem b.a_root anc_a then conc_with_descendant ctx b a.a_root
    else if List.mem a.a_root anc_b then conc_with_descendant ctx a b.a_root
    else
      (* siblings under the lowest common ancestor *)
      let in_b = ISet.of_list anc_b in
      let lca = List.find (fun id -> ISet.mem id in_b) anc_a in
      let ca = lift_to_child ctx ~anc:lca ~desc:a.a_root in
      let cb = lift_to_child ctx ~anc:lca ~desc:b.a_root in
      let finished_before x prior =
        ISet.mem x (quiesced ctx prior)
      in
      not
        ((match ca with
         | Some ca -> finished_before b.a_root ca.r_prior_joined
         | None -> false)
        || match cb with
           | Some cb -> finished_before a.a_root cb.r_prior_joined
           | None -> false)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type warning = {
  w_kind : Report.kind;
  w_stack : Loc.t list;
  w_pos : Token.pos;  (** precise span of the racing access *)
  w_site : site;
  w_field : string;
  w_locks : ISet.t;  (** real locks held (bus excluded) *)
  w_counter_kind : Report.kind;
  w_counter_stack : Loc.t list;
  w_counter_pos : Token.pos;
}

(** One abstract access, exported for downstream consumers (the repair
    engine groups these by (site, field) to pick a guard lock). *)
type access_info = {
  ac_kind : Report.kind;
  ac_site : int;
  ac_field : string;
  ac_stack : Loc.t list;
  ac_pos : Token.pos;
  ac_locks : ISet.t;  (** real locks held (bus excluded) *)
  ac_warned : bool;  (** this access participates in some race warning *)
}

type stats = {
  n_roots : int;
  n_accesses : int;
  n_sites : int;
  n_alloc_sites : int;
  n_escaping : int;
  cg_nodes : int;
  cg_edges : int;
  passes : int;
  truncated : bool;
}

type result = {
  warnings : warning list;
  suppressions : Suppression.t list;
  sites : site list;  (** every abstract site (locks, allocations), id order *)
  accesses : access_info list;  (** every recorded access, first-seen order *)
  local_allocs : site list;
  escaping_allocs : site list;
  hint_locs : (string * int) list;
  unreachable : string list;
  stats : stats;
}

let field_desc = function
  | "<vptr>" -> "vptr"
  | "[]" -> "word"
  | f -> Fmt.str "field '%s'" f

let pp_stack ppf stack =
  List.iteri
    (fun i l -> Fmt.pf ppf "   %s %a@\n" (if i = 0 then "at" else "by") Loc.pp l)
    stack

let pp_warning ppf w =
  Fmt.pf ppf "%a (static): %s of %s (%s:%d:%d)@\n" Report.pp_kind w.w_kind
    (field_desc w.w_field) w.w_site.site_desc w.w_pos.Token.file w.w_pos.Token.line
    w.w_pos.Token.col;
  pp_stack ppf w.w_stack;
  Fmt.pf ppf " Conflicts with a concurrent %s:@\n"
    (match w.w_counter_kind with Report.Race_write -> "write" | _ -> "read");
  pp_stack ppf w.w_counter_stack;
  Fmt.pf ppf " Object allocated at %a@\n" Loc.pp w.w_site.site_loc

let take n l =
  let rec go n = function [] -> [] | x :: r -> if n = 0 then [] else x :: go (n - 1) r in
  go n l

let analyse (p : program) : result =
  let cg = Callgraph.build p in
  let ctx =
    { program = p; cg; site_tbl = Hashtbl.create 64; sites = []; next_site = 0;
      heap = Hashtbl.create 64; changed = false; root_tbl = Hashtbl.create 16;
      roots = []; root_by_id = Hashtbl.create 16; acc_tbl = Hashtbl.create 256;
      accs = []; seq = 0; escape_seeds = ISet.empty; benign_sites = ISet.empty;
      truncated = false }
  in
  (* iterate to a heap fixpoint: spawn arguments and field contents
     discovered in one pass feed the points-to facts of the next *)
  let rec passes n =
    ctx.changed <- false;
    run_pass ctx;
    if ctx.changed && n + 1 < max_passes then passes (n + 1)
    else begin
      if ctx.changed then ctx.truncated <- true;
      n + 1
    end
  in
  let n_passes = passes 0 in
  let roots = List.rev ctx.roots in
  let accs = List.rev ctx.accs in
  (* --- thread escape: spawn arguments, stores through unknown
     pointers, closed under the heap --- *)
  let escaped = ref ctx.escape_seeds in
  List.iter
    (fun r ->
      if r.r_id <> 0 then
        List.iter (fun v -> escaped := ISet.union !escaped (obj_sites v)) r.r_args)
    roots;
  let rec close () =
    let before = ISet.cardinal !escaped in
    Hashtbl.iter
      (fun (s, _f) v -> if ISet.mem s !escaped then escaped := ISet.union !escaped (obj_sites v))
      ctx.heap;
    if ISet.cardinal !escaped > before then close ()
  in
  close ();
  let escaped = !escaped in
  (* --- race warnings: conflicting concurrent accesses to an escaping
     site with an empty lockset intersection --- *)
  let warned : (access, access) Hashtbl.t = Hashtbl.create 32 in
  let by_group : (int * string, access list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let k = (a.a_site, a.a_field) in
      Hashtbl.replace by_group k (a :: Option.value ~default:[] (Hashtbl.find_opt by_group k)))
    accs;
  Hashtbl.iter
    (fun (s, _f) group ->
      if ISet.mem s escaped && not (ISet.mem s ctx.benign_sites) then
        let group = List.rev group in
        List.iteri
          (fun i a ->
            List.iteri
              (fun j b ->
                if
                  j > i
                  && (a.a_kind = Awrite || b.a_kind = Awrite)
                  && ISet.is_empty (ISet.inter a.a_locks b.a_locks)
                  && concurrent ctx a b
                then begin
                  if not (Hashtbl.mem warned a) then Hashtbl.replace warned a b;
                  if not (Hashtbl.mem warned b) then Hashtbl.replace warned b a
                end)
              group)
          group)
    by_group;
  let kind_of a = match a.a_kind with Awrite -> Report.Race_write | Aread -> Report.Race_read in
  let seen_sigs = Hashtbl.create 32 in
  let warnings =
    List.filter_map
      (fun a ->
        match Hashtbl.find_opt warned a with
        | None -> None
        | Some b ->
            let sig_key =
              Fmt.str "%s|%s"
                (match a.a_kind with Awrite -> "w" | Aread -> "r")
                (render_stack (take Report.signature_depth a.a_stack))
            in
            if Hashtbl.mem seen_sigs sig_key then None
            else begin
              Hashtbl.replace seen_sigs sig_key ();
              Some
                { w_kind = kind_of a; w_stack = a.a_stack; w_pos = a.a_pos;
                  w_site = site_by_id ctx a.a_site; w_field = a.a_field;
                  w_locks = ISet.remove bus a.a_locks; w_counter_kind = kind_of b;
                  w_counter_stack = b.a_stack; w_counter_pos = b.a_pos }
            end)
      accs
  in
  (* --- suppressions for consistently guarded shared accesses --- *)
  let sup_seen = Hashtbl.create 32 in
  let sup_n = ref 0 in
  let suppressions =
    List.filter_map
      (fun a ->
        if
          ISet.mem a.a_site escaped
          && (not (Hashtbl.mem warned a))
          && not (ISet.is_empty (ISet.remove bus a.a_locks))
        then begin
          let kind = Fmt.str "%a" Report.pp_kind (kind_of a) in
          let key = Fmt.str "%s|%s" kind (render_stack (take Report.signature_depth a.a_stack)) in
          if Hashtbl.mem sup_seen key then None
          else begin
            Hashtbl.replace sup_seen key ();
            incr sup_n;
            Some
              (Suppression.of_frames
                 ~name:(Fmt.str "static-guarded-%d" !sup_n)
                 ~kind ~frames:a.a_stack)
          end
        end
        else None)
      accs
  in
  (* --- locality hints: (file, line) pairs where every allocation site
     is provably non-escaping --- *)
  let all_sites = List.rev ctx.sites in
  let alloc_sites = List.filter (fun s -> s.site_alloc) all_sites in
  let local_allocs = List.filter (fun s -> not (ISet.mem s.site_id escaped)) alloc_sites in
  let escaping_allocs = List.filter (fun s -> ISet.mem s.site_id escaped) alloc_sites in
  let line_ok =
    (* a line is only a hint when no escaping alloc site shares it *)
    let bad = Hashtbl.create 8 in
    List.iter
      (fun s -> Hashtbl.replace bad (s.site_loc.Loc.file, s.site_loc.Loc.line) ())
      escaping_allocs;
    fun s -> not (Hashtbl.mem bad (s.site_loc.Loc.file, s.site_loc.Loc.line))
  in
  let hint_locs =
    List.filter line_ok local_allocs
    |> List.map (fun s -> (s.site_loc.Loc.file, s.site_loc.Loc.line))
    |> List.sort_uniq compare
  in
  let accesses =
    List.map
      (fun a ->
        { ac_kind = kind_of a; ac_site = a.a_site; ac_field = a.a_field;
          ac_stack = a.a_stack; ac_pos = a.a_pos;
          ac_locks = ISet.remove bus a.a_locks; ac_warned = Hashtbl.mem warned a })
      accs
  in
  {
    warnings;
    suppressions;
    sites = all_sites;
    accesses;
    local_allocs;
    escaping_allocs;
    hint_locs;
    unreachable = Callgraph.unreachable_functions cg;
    stats =
      {
        n_roots = List.length roots;
        n_accesses = List.length accs;
        n_sites = List.length all_sites;
        n_alloc_sites = List.length alloc_sites;
        n_escaping = List.length escaping_allocs;
        cg_nodes = List.length (Callgraph.nodes cg);
        cg_edges = Callgraph.n_edges cg;
        passes = n_passes;
        truncated = ctx.truncated;
      };
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_result ppf r =
  List.iter (fun w -> Fmt.pf ppf "%a@\n" pp_warning w) r.warnings;
  Fmt.pf ppf "%d static race warning(s), %d suppression(s) generated@\n"
    (List.length r.warnings) (List.length r.suppressions);
  Fmt.pf ppf "%d allocation site(s): %d thread-local, %d escaping@\n" r.stats.n_alloc_sites
    (List.length r.local_allocs) r.stats.n_escaping;
  (match r.unreachable with
  | [] -> ()
  | fs -> Fmt.pf ppf "unreachable function(s): %s@\n" (String.concat ", " fs));
  if r.stats.truncated then
    Fmt.pf ppf "note: analysis bounds were hit; results are partial@\n"

let loc_json (l : Loc.t) = Json.Str (Loc.to_string l)

let site_json s =
  Json.Obj
    [
      ("id", Json.int s.site_id);
      ("desc", Json.Str s.site_desc);
      ("loc", loc_json s.site_loc);
    ]

let span_json (p : Token.pos) =
  Json.Obj
    [
      ("file", Json.Str p.Token.file);
      ("line", Json.int p.Token.line);
      ("col", Json.int p.Token.col);
    ]

let warning_json w =
  Json.Obj
    [
      ("kind", Json.Str (Fmt.str "%a" Report.pp_kind w.w_kind));
      ("target", Json.Str (field_desc w.w_field));
      ("site", site_json w.w_site);
      ("span", span_json w.w_pos);
      ("stack", Json.List (List.map loc_json w.w_stack));
      ("conflict_kind", Json.Str (Fmt.str "%a" Report.pp_kind w.w_counter_kind));
      ("conflict_span", span_json w.w_counter_pos);
      ("conflict_stack", Json.List (List.map loc_json w.w_counter_stack));
    ]

let to_json ~file r =
  Json.Obj
    [
      ("schema", Json.Str "raceguard-lint/1");
      ("file", Json.Str file);
      ("warnings", Json.List (List.map warning_json r.warnings));
      ("suppressions", Json.List (List.map (fun s -> Json.Str (Suppression.to_string s)) r.suppressions));
      ("local_allocs", Json.List (List.map site_json r.local_allocs));
      ("escaping_allocs", Json.List (List.map site_json r.escaping_allocs));
      ( "hints",
        Json.List
          (List.map
             (fun (f, l) -> Json.Obj [ ("file", Json.Str f); ("line", Json.int l) ])
             r.hint_locs) );
      ("unreachable_functions", Json.List (List.map (fun f -> Json.Str f) r.unreachable));
      ( "stats",
        Json.Obj
          [
            ("roots", Json.int r.stats.n_roots);
            ("accesses", Json.int r.stats.n_accesses);
            ("sites", Json.int r.stats.n_sites);
            ("alloc_sites", Json.int r.stats.n_alloc_sites);
            ("escaping_sites", Json.int r.stats.n_escaping);
            ("callgraph_nodes", Json.int r.stats.cg_nodes);
            ("callgraph_edges", Json.int r.stats.cg_edges);
            ("passes", Json.int r.stats.passes);
            ("truncated", Json.Bool r.stats.truncated);
          ] );
    ]
