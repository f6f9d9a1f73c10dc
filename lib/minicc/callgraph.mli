(** Call graph for MiniC++ programs, feeding {!Static_race}.

    Nodes are free functions, methods and destructors; edges resolve
    virtual dispatch conservatively (every class defining the called
    method) and [delete] conservatively (every destructor).  Roots are
    [main] plus every [Spawn] target — the places a thread can start. *)

type node = Ast.node = Func of string | Method of string * string | Dtor of string
(** A body: a free function, a method (class, method) or a destructor
    (class); {!Ast.node_name} gives its frame name. *)

val compare_node : node -> node -> int

type t

val build : Ast.program -> t

val nodes : t -> node list
(** All nodes, in declaration order. *)

val roots : t -> node list
(** [main] (when present) first, then spawn targets in source order. *)

val callees : t -> node -> node list

val n_edges : t -> int

val reachable : t -> node list
(** Nodes reachable from the roots. *)

val unreachable_functions : t -> string list
(** Free functions no thread can reach — dead code the static pass
    skips and the lint output mentions. *)

val may_recurse : t -> node -> bool
(** [node] participates in a call cycle (including self-recursion). *)

val may_alter_locks : t -> node -> bool
(** [node] or a transitive callee uses an unbalanced lock builtin
    ([mutex_lock] & friends), i.e. calling it can change the caller's
    held-lock set; scoped [lock] blocks cannot. *)

val pp : Format.formatter -> t -> unit
