(** Recursive-descent parser for MiniC++ (precedence climbing for
    expressions).  The real pipeline needed a GLR parser (ELSA) because
    of full ISO C++; MiniC++ is deliberately LL(1)-ish. *)

exception Error of string * Token.pos

val max_depth : int
(** The nesting cap, 256.  Parentheses, argument lists, unary and
    binary operators, field and method selections, blocks and
    [else if] links each count one level of one depth, and a program
    nested deeper raises {!Error} instead of overflowing the stack. *)

val parse_program : file:string -> Token.t list -> Ast.program
(** Parse a token stream (ending in EOF). *)

val parse_string : file:string -> string -> Ast.program
(** Lex + parse (no preprocessing; see {!Preprocess.parse}). *)
