(** Tree-walking interpreter: MiniC++ executes on the simulated VM.

    Objects live in VM memory with a vptr in slot 0, every field access
    is a VM access attributed to the source position performing it,
    destructor chains write the vptr at each level, and the
    [ca_deletor_single] wrapper inserted by {!Annotate} issues the
    [VALGRIND_HG_DESTRUCT] client request — so race reports carry
    MiniC++ file/line stacks, exactly like Helgrind over debug-built
    C++. *)

exception Runtime_error of string * Token.pos

type value = Vint of int | Vstr of string

type t

val create : Ast.program -> t

val run_main : t -> unit
(** Execute the program's [main]; call from inside a VM thread.
    Runtime errors ({!Runtime_error}) fail the simulated thread. *)

val output : t -> string list
(** Everything the program [print]ed, in order. *)

val compile :
  ?annotate:bool ->
  file:string ->
  string ->
  t * string * int
(** The full Figure-3 pipeline on a source string: preprocess, parse,
    {!Check.check}, optionally {!Annotate.annotate}.  Returns the
    executable program, the (possibly annotated) pretty-printed source,
    and the number of deletes annotated.  [annotate] defaults to
    [true]; the preprocessor knows the built-in headers
    ([valgrind/helgrind.h]). *)
