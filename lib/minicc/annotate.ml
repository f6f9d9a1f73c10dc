(** The automatic source annotation pass (§3.1, Figure 4).

    Rewrites every [delete e;] into [delete ca_deletor_single(e);]: the
    argument is passed through a helper that announces the imminent
    destruction to the race detector via a client request, then returns
    it unchanged.  The transformation is

    - {b automatic}: no programmer interaction, "annotation is done
      on-the-fly and easily removed from the build process";
    - {b transparent}: the on-disk source is never modified — the pass
      runs between the preprocessor and the compiler;
    - {b harmless}: the client request "expands to a sequence of
      mnemonics that do nothing under normal execution".

    The pass also records how many deletes were annotated, which the
    build wrapper logs. *)

open Ast

(** Annotate a whole program.  Returns the rewritten program and the
    number of delete expressions annotated. *)
let annotate (p : program) =
  let n = ref 0 in
  let wrap s =
    match s.s with
    | Delete { e = Deletor _; _ } -> s  (* already annotated: idempotent *)
    | Delete e ->
        incr n;
        { s with s = Delete { e with e = Deletor e } }
    | _ -> s
  in
  let p = map_bodies (fun _ -> List.map (map_stmt Fun.id wrap)) p in
  (p, !n)

(** Count deletes that are not yet annotated (for build diagnostics). *)
let unannotated_deletes (p : program) =
  let n = ref 0 in
  let count s = match s.s with Delete { e = Deletor _; _ } -> () | Delete _ -> incr n | _ -> () in
  List.iter (fun (_, _, body) -> List.iter (iter_stmt count) body) (bodies p);
  !n
