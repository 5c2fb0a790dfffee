(** Line-level tokenization of IOS-style configuration text.

    IOS configurations are line-oriented: top-level commands start in
    column 0, mode sub-commands are indented by one space, ['!'] lines are
    separators/comments.  The lexer yields logical lines with their
    indentation so the parser can track mode structure. *)

type line = {
  indent : int;  (** number of leading whitespace characters (spaces or tabs). *)
  words : string list;  (** whitespace-separated tokens, non-empty. *)
  raw : string;  (** the original line, trailing whitespace trimmed. *)
  lineno : int;  (** 1-based physical line number. *)
}

val lines_of_string : string -> line list
(** Logical (non-blank, non-comment) lines in order. *)

val physical_lines : string -> int
(** Physical line count: a trailing newline does not start another
    line.  With the length of {!lines_of_string} (the command count) it
    is the paper's Figure 4 measure. *)
