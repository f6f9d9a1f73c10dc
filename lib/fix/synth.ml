(** Patch synthesis: from confirmed static∩dynamic findings to
    concrete, applicable AST patches.

    For each confirmed group of racing accesses (an abstract
    [(site, field)] pair) the engine:

    - prefers an {e existing} lock — the lock already protecting the
      most accesses of the group (ties broken by lowest site id), so
      the patch minimises both contention and edit size;
    - {e threads} that lock through call chains when a racing function
      cannot name it, appending a parameter and rewriting every call
      site (the callgraph-based scope widening);
    - falls back to a {e fresh mutex member} on the owning class,
      initialised after every allocation, when the group shares no
      lock;
    - gives up with a reason otherwise (implicit vptr lifetime races,
      raw word sites without an owning class, unthreadable scopes).

    See DESIGN.md §15 for the full rules and the verification
    argument. *)

module M = Raceguard_minicc
module Static = M.Static_race
module Token = M.Token
module Report = Raceguard_detector.Report
module Loc = Raceguard_util.Loc
open M.Ast

type guard =
  | G_existing of {
      gx_site : Static.site;
      gx_name : string;  (** the lock's creation name, for humans *)
      gx_bind : (string * string) list;  (** node -> in-scope variable *)
      gx_new_params : (string * string) list;  (** (fn, param) appended, thread order *)
    }
  | G_member of { gm_cls : string; gm_field : string; gm_name : string }

type plan = {
  pl_site : Static.site;
  pl_field : string;
  pl_strategy : string;  (** ["existing-lock"], ["threaded-lock"] or ["fresh-member"] *)
  pl_guard : guard;
  pl_guard_desc : string;
  pl_targets : (string * Token.pos) list;  (** (node, access span) needing a wrap *)
  pl_fixed_sigs : Report.signature list;  (** confirmed signatures this patch repairs *)
  pl_group_sigs : Report.signature list;  (** every signature attributable to the group *)
  pl_edits : string list;
}

(* ------------------------------------------------------------------ *)
(* Lock-binding resolution                                             *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type binding = Bound of int | Poisoned

(** Where is each statically-known lock nameable?  Returns, per node
    (keyed like access-stack functions), the variables bound to each
    lock site — seeded from [var x = mutex("...")] declarations matched
    against the analysis' lock sites, then propagated through call and
    spawn argument positions to a fixpoint.  A parameter fed two
    different locks is poisoned.  Also returns each lock's creation
    name and the call-site relation used for threading. *)
let resolve (p : program) (static : Static.result) =
  let bodies = Rewrite.bodies p in
  let lock_sites =
    List.filter (fun s -> s.Static.site_desc = "mutex" || s.Static.site_desc = "rwlock")
      static.Static.sites
  in
  let bindings : (string, binding SMap.t) Hashtbl.t = Hashtbl.create 16 in
  let get node = Option.value ~default:SMap.empty (Hashtbl.find_opt bindings node) in
  let changed = ref true in
  let bind node var site =
    let m = get node in
    match SMap.find_opt var m with
    | Some (Bound s) when s = site -> ()
    | Some Poisoned -> ()
    | Some (Bound _) ->
        Hashtbl.replace bindings node (SMap.add var Poisoned m);
        changed := true
    | None ->
        Hashtbl.replace bindings node (SMap.add var (Bound site) m);
        changed := true
  in
  let lock_names : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let call_sites : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let add_call_site callee caller =
    let l = Option.value ~default:[] (Hashtbl.find_opt call_sites callee) in
    if not (List.mem caller l) then Hashtbl.replace call_sites callee (caller :: l)
  in
  (* seeds: lock creations bound to a local variable *)
  List.iter
    (fun (node, _params, body) ->
      let seed_stmt s =
        match s.s with
        | Var_decl (x, { e = Call (desc, args); epos })
        | Assign (Lvar x, { e = Call (desc, args); epos })
          when desc = "mutex" || desc = "rwlock" ->
            let site =
              List.find_opt
                (fun st ->
                  st.Static.site_desc = desc
                  && st.Static.site_loc.Loc.file = epos.Token.file
                  && st.Static.site_loc.Loc.line = epos.Token.line
                  && st.Static.site_loc.Loc.func = node)
                lock_sites
            in
            Option.iter
              (fun st ->
                bind node x st.Static.site_id;
                match args with
                | [ { e = Str n; _ } ] -> Hashtbl.replace lock_names st.Static.site_id n
                | _ -> ())
              site
        | _ -> ()
      in
      let rec go s =
        seed_stmt s;
        match s.s with
        | If (_, a, b) ->
            List.iter go a;
            List.iter go b
        | While (_, b) | Lock (_, b) | Block b -> List.iter go b
        | _ -> ()
      in
      List.iter go body)
    bodies;
  (* propagation through call/spawn argument positions *)
  let params_of = Hashtbl.create 16 in
  List.iter (fun (node, params, _) -> Hashtbl.replace params_of node params) bodies;
  let propagate () =
    List.iter
      (fun (node, _params, body) ->
        let prop_call callee args =
          match Hashtbl.find_opt params_of callee with
          | None -> ()
          | Some params when List.length params = List.length args ->
              List.iter2
                (fun prm a ->
                  match a.e with
                  | Var x -> (
                      match SMap.find_opt x (get node) with
                      | Some (Bound s) -> bind callee prm s
                      | Some Poisoned ->
                          let m = get callee in
                          if SMap.find_opt prm m <> Some Poisoned then begin
                            Hashtbl.replace bindings callee (SMap.add prm Poisoned m);
                            changed := true
                          end
                      | None -> ())
                  | _ -> ())
                params args
          | Some _ -> ()
        in
        List.iter
          (Rewrite.iter_stmt_exprs (fun e ->
               match e.e with
               | Call (n, args) when Hashtbl.mem params_of n ->
                   add_call_site n node;
                   prop_call n args
               | Spawn (n, args) ->
                   add_call_site n node;
                   prop_call n args
               | Method_call (_, m, args) ->
                   List.iter
                     (fun c ->
                       let mn = c.cls_name ^ "::" ^ m in
                       if Hashtbl.mem params_of mn then begin
                         add_call_site mn node;
                         prop_call mn args
                       end)
                     (classes p)
               | _ -> ()))
          body)
      bodies
  in
  while !changed do
    changed := false;
    propagate ()
  done;
  let binding_of node site =
    SMap.fold
      (fun var b acc ->
        match (b, acc) with Bound s, None when s = site -> Some var | _ -> acc)
      (get node) None
  in
  (binding_of, lock_names, call_sites)

(* ------------------------------------------------------------------ *)
(* Guard choice and plan construction                                  *)
(* ------------------------------------------------------------------ *)

let node_of_access (a : Static.access_info) =
  match a.Static.ac_stack with [] -> "?" | l :: _ -> l.Loc.func

let fresh_param = "__rg_lock"
let fresh_field = "__rg_guard"

(** Build one plan per confirmed group, or a reason it stays unfixed.
    [confirmed] are the cross-check's confirmed signatures. *)
let plan_groups (p : program) (static : Static.result) ~(confirmed : Report.signature list) :
    plan list * (string * string) list =
  let bodies = Rewrite.bodies p in
  let body_names = List.map (fun (n, _, _) -> n) bodies in
  let binding_of, lock_names, call_sites = resolve p static in
  let confirmed_warnings =
    List.filter
      (fun (w : Static.warning) ->
        List.mem (Report.signature_of w.Static.w_kind w.Static.w_stack) confirmed)
      static.Static.warnings
  in
  let groups =
    List.sort_uniq compare
      (List.map
         (fun (w : Static.warning) -> (w.Static.w_site.Static.site_id, w.Static.w_field))
         confirmed_warnings)
  in
  let plans = ref [] in
  let unfixed = ref [] in
  List.iter
    (fun (site_id, field) ->
      let site =
        List.find (fun s -> s.Static.site_id = site_id) static.Static.sites
      in
      let gdesc = Fmt.str "%s %s" site.Static.site_desc (Static.field_desc field) in
      let give_up reason = unfixed := (gdesc, reason) :: !unfixed in
      let accesses =
        List.filter
          (fun a -> a.Static.ac_site = site_id && a.Static.ac_field = field)
          static.Static.accesses
      in
      let group_sigs =
        List.sort_uniq compare
          (List.map
             (fun a -> Report.signature_of a.Static.ac_kind a.Static.ac_stack)
             accesses)
      in
      let fixed_sigs =
        List.sort_uniq compare
          (List.filter_map
             (fun (w : Static.warning) ->
               if w.Static.w_site.Static.site_id = site_id && w.Static.w_field = field then
                 Some (Report.signature_of w.Static.w_kind w.Static.w_stack)
               else None)
             confirmed_warnings)
      in
      if field = "<vptr>" then
        give_up "implicit vptr access (object-lifetime race): not repairable by lock insertion"
      else begin
        (* candidate guards: locks already protecting part of the group *)
        let tally = Hashtbl.create 4 in
        List.iter
          (fun a ->
            Static.ISet.iter
              (fun l ->
                Hashtbl.replace tally l (1 + Option.value ~default:0 (Hashtbl.find_opt tally l)))
              a.Static.ac_locks)
          accesses;
        let best =
          Hashtbl.fold
            (fun l n acc ->
              match acc with
              | Some (bl, bn) when bn > n || (bn = n && bl <= l) -> acc
              | _ -> Some (l, n))
            tally None
        in
        let targets_for guard_site =
          List.filter_map
            (fun a ->
              let held =
                match guard_site with
                | Some g -> Static.ISet.mem g a.Static.ac_locks
                | None -> false
              in
              if held then None else Some (node_of_access a, a.Static.ac_pos))
            accesses
          |> List.sort_uniq compare
        in
        let unrewritable targets =
          List.filter (fun (n, _) -> not (List.mem n body_names)) targets
        in
        let try_existing (lock_id, _count) =
          let guard_site =
            List.find (fun s -> s.Static.site_id = lock_id) static.Static.sites
          in
          let targets = targets_for (Some lock_id) in
          match unrewritable targets with
          | (n, _) :: _ -> Error (Fmt.str "access attributed to non-rewritable context %s" n)
          | [] -> (
              let target_nodes = List.sort_uniq compare (List.map fst targets) in
              let missing =
                List.filter (fun n -> binding_of n lock_id = None) target_nodes
              in
              (* close the set of functions that must receive the lock *)
              let rec close need queue =
                match queue with
                | [] -> Ok need
                | fn :: rest ->
                    if String.contains fn ':' then
                      Error (Fmt.str "cannot thread a lock through method %s" fn)
                    else if fn = "main" then
                      Error "the racing scope is main itself, which has no callers"
                    else begin
                      match Hashtbl.find_opt call_sites fn with
                      | None | Some [] -> Error (Fmt.str "%s has no call sites to widen" fn)
                      | Some callers ->
                          let newly =
                            List.filter
                              (fun c ->
                                binding_of c lock_id = None && not (List.mem c need)
                                && not (List.mem c rest))
                              callers
                          in
                          close (need @ newly) (rest @ newly)
                    end
              in
              match close missing missing with
              | Error e -> Error e
              | Ok need ->
                  (* the fresh parameter must be free in every widened fn *)
                  let clash =
                    List.find_opt
                      (fun fn ->
                        let used = ref false in
                        List.iter
                          (fun (n, params, body) ->
                            if n = fn then begin
                              if List.mem fresh_param params then used := true;
                              List.iter
                                (Rewrite.iter_stmt_exprs (fun e ->
                                     match e.e with
                                     | Var x when x = fresh_param -> used := true
                                     | _ -> ()))
                                body
                            end)
                          bodies;
                        !used)
                      need
                  in
                  match clash with
                  | Some fn -> Error (Fmt.str "%s already uses the name %s" fn fresh_param)
                  | None ->
                      (* every node that wraps, receives, or forwards the
                         lock needs a nameable binding *)
                      let all_callers =
                        List.concat_map
                          (fun fn ->
                            Option.value ~default:[] (Hashtbl.find_opt call_sites fn))
                          need
                      in
                      let gx_bind =
                        List.sort_uniq compare (target_nodes @ need @ all_callers)
                        |> List.map (fun n ->
                               match binding_of n lock_id with
                               | Some v -> (n, v)
                               | None -> (n, fresh_param))
                      in
                      let gx_name =
                        Option.value ~default:(Fmt.str "lock#%d" lock_id)
                          (Hashtbl.find_opt lock_names lock_id)
                      in
                      Ok
                        ( G_existing
                            {
                              gx_site = guard_site;
                              gx_name;
                              gx_bind;
                              gx_new_params = List.map (fun n -> (n, fresh_param)) need;
                            },
                          (if need = [] then "existing-lock" else "threaded-lock"),
                          Fmt.str "existing lock %S (site %d)" gx_name lock_id,
                          targets,
                          need ))
        in
        let try_member () =
          match site.Static.site_cls with
          | None ->
              Error "group shares no lock and the site has no owning class (raw allocation)"
          | Some cls ->
              if field = "[]" then
                Error "raw word accesses cannot take a per-class guard member"
              else
                let targets = targets_for None in
                (match unrewritable targets with
                | (n, _) :: _ ->
                    Error (Fmt.str "access attributed to non-rewritable context %s" n)
                | [] ->
                    Ok
                      ( G_member
                          {
                            gm_cls = cls;
                            gm_field = fresh_field;
                            gm_name = fresh_field ^ "_" ^ cls;
                          },
                        "fresh-member",
                        Fmt.str "fresh mutex member %s.%s" cls fresh_field,
                        targets,
                        [] ))
        in
        let chosen =
          match best with
          | Some b -> (
              match try_existing b with
              | Ok r -> Ok r
              | Error e1 -> (
                  match try_member () with
                  | Ok r -> Ok r
                  | Error e2 -> Error (e1 ^ "; " ^ e2)))
          | None -> try_member ()
        in
        match chosen with
        | Error reason -> give_up reason
        | Ok (guard, strategy, guard_desc, targets, threaded) ->
            let edits =
              List.map
                (fun (n, (pos : Token.pos)) ->
                  Fmt.str "wrap %s:%d:%d in %s" n pos.Token.line pos.Token.col guard_desc)
                targets
              @ List.map (fun fn -> Fmt.str "thread lock parameter into %s" fn) threaded
              @
              match guard with
              | G_member { gm_cls; gm_field; _ } ->
                  [ Fmt.str "add field %s to class %s and initialise it after every allocation"
                      gm_field gm_cls ]
              | G_existing _ -> []
            in
            plans :=
              {
                pl_site = site;
                pl_field = field;
                pl_strategy = strategy;
                pl_guard = guard;
                pl_guard_desc = guard_desc;
                pl_targets = targets;
                pl_fixed_sigs = fixed_sigs;
                pl_group_sigs = group_sigs;
                pl_edits = edits;
              }
              :: !plans
      end)
    groups;
  (List.rev !plans, List.rev !unfixed)

(* ------------------------------------------------------------------ *)
(* Plan application                                                    *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(** Apply one plan to a program (the original, or one already carrying
    other verified patches — positions survive, so plans compose). *)
let apply (p : program) (plan : plan) : (program, string) result =
  let wrap_node p (node, targets) ~guard_for =
    let res = ref (Ok ()) in
    let p' =
      Rewrite.map_body p ~node (fun body ->
          match Rewrite.wrap_in_body ~guard_for ~targets body with
          | Ok (body', n) ->
              if n = 0 && !res = Ok () then
                res := Error (Fmt.str "no statement found to wrap in %s" node);
              body'
          | Error e ->
              res := Error e;
              body)
    in
    match p' with
    | None -> Error (Fmt.str "no rewritable body named %s" node)
    | Some p' -> ( match !res with Ok () -> Ok p' | Error e -> Error e)
  in
  let by_node =
    List.fold_left
      (fun acc (n, pos) ->
        let cur = Option.value ~default:[] (List.assoc_opt n acc) in
        (n, pos :: cur) :: List.remove_assoc n acc)
      [] plan.pl_targets
  in
  match plan.pl_guard with
  | G_member { gm_cls; gm_field; gm_name } ->
      let p = Rewrite.add_class_field p ~cls:gm_cls ~field:gm_field in
      let* p, _n = Rewrite.insert_guard_inits p ~cls:gm_cls ~field:gm_field ~name:gm_name in
      List.fold_left
        (fun acc (node, targets) ->
          let* p = acc in
          wrap_node p (node, targets) ~guard_for:(fun s covered ->
              match covered with
              | [] -> None
              | pos :: _ -> (
                  match Rewrite.find_field_base ~field:plan.pl_field ~pos s with
                  | Some base when Rewrite.is_pure_path base ->
                      Some { e = Field (base, gm_field); epos = s.spos }
                  | _ -> None)))
        (Ok p) by_node
  | G_existing { gx_bind; gx_new_params; _ } ->
      let p = List.fold_left (fun p (fn, param) -> Rewrite.add_param p ~fn ~param) p gx_new_params in
      let* p =
        List.fold_left
          (fun acc (fn, _param) ->
            let* p = acc in
            Rewrite.add_args p ~callee:fn ~arg_for:(fun node pos ->
                match List.assoc_opt node gx_bind with
                | Some v -> Some { e = Var v; epos = pos }
                | None -> None))
          (Ok p) gx_new_params
      in
      List.fold_left
        (fun acc (node, targets) ->
          let* p = acc in
          match List.assoc_opt node gx_bind with
          | None -> Error (Fmt.str "no guard binding for %s" node)
          | Some v ->
              wrap_node p (node, targets) ~guard_for:(fun s _covered ->
                  Some { e = Var v; epos = s.spos }))
        (Ok p) by_node
