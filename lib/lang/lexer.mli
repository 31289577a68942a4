(** CSL tokenizer. *)

type token =
  | Int of int
  | Float of float
  | Str of string
  | Ident of string
  | Keyword of string
      (** one of: import import_thrift def export if then else let in
          and or not true false null *)
  | Op of string
      (** one of: == != <= >= < > + - * / % = . , : ( ) [ ] { } *)
  | Eof

type error = { line : int; message : string }

exception Lex_error of error

val pp_error : Format.formatter -> error -> unit
val pp_token : Format.formatter -> token -> unit

val tokenize : string -> (token * int) array
(** Whole-input tokenization; each token is paired with its 1-based
    line.  The final element is always [(Eof, line)].
    Comments start with [#] or [//] and run to end of line.
    @raise Lex_error on an invalid character, an unterminated string or
    a malformed number (an integer beyond [max_int], an exponent with
    no digits). *)
