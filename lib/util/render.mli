(** Plain-text rendering of the paper's tables and figure series.

    Figures are emitted as aligned numeric series (one row per x value,
    one column per scheme), which is the form the paper's plots encode;
    tables are emitted as boxed ASCII tables. *)

val table :
  ?title:string -> header:string list -> string list list -> string
(** [table ~header rows] renders a boxed table.  Every row must have
    the same arity as [header]. *)

val series :
  ?title:string ->
  x_label:string ->
  columns:string list ->
  (string * float list) list ->
  string
(** [series ~x_label ~columns rows] renders a figure-style numeric
    panel: [rows] are [(x, ys)] with one y per column.  Missing values
    may be encoded as [nan] and render as ["-"]. *)

val cdf_panel :
  ?title:string -> names:string list -> (int * float) list list -> string
(** Render several CDFs side by side: one row per integer value, one
    column per benchmark, cumulative fractions as percentages. *)

val float_cell : float -> string
(** Compact numeric formatting used by [series] (3 significant
    decimals, ["-"] for [nan]).
    Exported as the cell format {!series} is built on. *)
