(** ISCAS85 ".bench" format reader and writer.

    Supported syntax (case-insensitive gate names, '#' comments):
    {v
      INPUT(a)
      OUTPUT(z)
      z = NAND(a, b)
      w = NOT(z)
    v} *)

exception Parse_error of { line : int; message : string }

val parse_string : name:string -> string -> Netlist.t
(** Node ids are the PIs in declaration order, then the gates in
    definition order.  The parser keeps a few int slots per line and one
    table interning every name; at the end it resolves the fan-ins to
    node ids in place and hands its arrays and its intern table, re-keyed
    to node ids, to {!Netlist.of_flat}, so no per-gate record, list or
    second name table is built.
    @raise Parse_error on malformed text — including a signal defined
    more than once or a fan-in that is never defined, both reported with
    the offending line number — and {!Netlist.Invalid} on a structurally
    broken circuit (a cycle, an [OUTPUT] that is never defined). *)

val parse_file : string -> Netlist.t
(** Netlist name is the file's basename without extension.  Reads one
    line at a time and feeds each to the parser {!parse_string} runs on
    its split text, so the result, the line numbers and the messages
    are the same as [parse_string] on the file's contents (CRLF line
    ends and a missing final newline included), while neither the whole
    text nor a list of its lines is held.  The channel is closed even
    when reading or parsing raises.
    @raise Parse_error, {!Netlist.Invalid} as {!parse_string}, or
    [Sys_error] when the file cannot be opened or read. *)

val to_string : Netlist.t -> string
(** Round-trippable ".bench" text. *)

val write_file : Netlist.t -> string -> unit
