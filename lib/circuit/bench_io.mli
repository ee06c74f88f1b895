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
    definition order.  The parser scans each line in place as a byte
    range: it finds the comment, the ['='], the first ['('], the last
    [')'] and the commas by index, trims with [String.trim]'s blank set
    (space, ['\012'], ['\n'], ['\r'], ['\t']) and matches gate kinds
    and [INPUT]/[OUTPUT] case-insensitively without a copy.  Names are
    interned in one open-addressing int table keyed by a hash of the
    bytes, so a string is made only for a name seen for the first time,
    for an [OUTPUT] name and for an error message; per line it keeps a
    few int slots.  At the end it resolves the fan-ins to node ids in
    place and hands the arrays to {!Netlist.of_flat}, which builds the
    netlist's own name index.
    @raise Parse_error on malformed text — including a signal defined
    more than once or a fan-in that is never defined, both reported with
    the offending line number.  A line's own errors come in text order;
    then signals defined twice, at the second definition in id order;
    then undefined fan-ins, in gate then pin order.
    @raise Netlist.Invalid on a structurally broken circuit (a cycle,
    an [OUTPUT] that is never defined, a NOT or BUF with more than one
    input). *)

val parse_file : string -> Netlist.t
(** Netlist name is the file's basename without extension.  Reads the
    file in fixed-size chunks into one buffer and parses the complete
    lines of each chunk in place; the start of a line that runs past a
    chunk moves to the front of the buffer, which doubles only for a
    line longer than itself.  So the result, the line numbers and the
    messages are the same as [parse_string] on the file's contents (CRLF
    line ends and a missing final newline included), while the whole
    text is never held.  The channel is closed even when reading or
    parsing raises.
    @raise Parse_error, {!Netlist.Invalid} as {!parse_string}, or
    [Sys_error] with a message that starts with the path when the file
    cannot be opened or read (a directory, say). *)

val to_string : Netlist.t -> string
(** Round-trippable ".bench" text: a [# ] line with {!Netlist.stats},
    the [INPUT]s, the [OUTPUT]s, then one [name = KIND(a, b)] line per
    gate in topological order, rendered into one buffer through the
    flat accessors. *)

val write_file : Netlist.t -> string -> unit
