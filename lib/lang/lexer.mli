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

val tokenize : string -> token array * int array
(** Whole-input tokenization into two arrays of one length: the
    tokens and, at the same index, each token's 1-based line.  The
    tokens end in [Eof], and every slot after it also holds [Eof], at
    the line where the input ends, so the arrays may be longer than the
    token count and reading past the end of input is reading [Eof].
    Comments start with [#] or [//] and run to end of line.
    @raise Lex_error on an invalid character, an unterminated string or
    a malformed number (an integer beyond [max_int], an exponent with
    no digits). *)
