package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.types.StructType

/** A run of row-local OPs (Mappers, Filters, MetaFilters) compiled into one
  * per-row function `(text, meta, stats) → Option[(text, stats)]`, where
  * `None` means a filter rejected the sample.
  *
  * Row semantics, the same for a whole segment and for a single OP:
  *  - a null `text` stays null unless a mapper rewrites it; mappers and
  *    [[TextContext]]s see `""` in its place;
  *  - a filter computes stats only if one of its `statsKeys` is missing, so
  *    an Analyzer pre-pass is reused rather than recomputed;
  *  - the program stops at the first rejecting filter;
  *  - each OP builds its own context; a [[FusedFilter]] shares one across its
  *    members, which is what fusion saves (paper Sec. 7).
  *
  * On Spark a program runs as ONE `mapPartitions`: the optimizer cannot inline
  * through it or push a predicate into it, so each OP runs exactly once per
  * sample. (Deterministic per-OP UDFs get inlined into every later filter
  * predicate and stats projection, re-running the mapper chain per filter.)
  */
final case class RowProgram(ops: Seq[Op]) {
  require(ops.nonEmpty && ops.forall(RowProgram.isRowOp),
    s"a row program holds Mappers, Filters and MetaFilters only; got ${ops.map(_.name).mkString(", ")}")

  private val steps: Array[Op] = ops.toArray

  /** Run the program over one sample. */
  def apply(text: String, meta: Map[String, String], stats: Map[String, Double]): Option[(String, Map[String, Double])] = {
    var t = text
    var s = stats
    var i = 0
    while (i < steps.length) {
      steps(i) match {
        case m: Mapper => t = m.mapText(if (t == null) "" else t)
        case f: Filter =>
          val prev = if (s == null) Map.empty[String, Double] else s
          s = if (f.statsKeys.forall(prev.contains)) prev
              else prev ++ f.computeStatsRow(new TextContext(if (t == null) "" else t))
          if (!f.keepRow(s)) return None
        case mf: MetaFilter =>
          if (!mf.keepMeta(if (meta == null) Map.empty else meta)) return None
        case other => throw new IllegalStateException(s"not a row OP: ${other.name}")
      }
      i += 1
    }
    Some((t, s))
  }

  /** Run the program over a unified dataset; other columns pass through.
    * Written columns get the types the Spark UDF lifts give them (a nullable
    * `text`; `stats` as in `Filter.computeStats`), so an OP's output has one
    * schema, and one parquet layout, whichever path produced it.
    */
  def run(df: DataFrame): DataFrame = {
    val schema = StructType(df.schema.map {
      case f if f.name == Schema.Text && ops.exists(_.isInstanceOf[Mapper]) => f.copy(nullable = true)
      case f if f.name == Schema.Stats && ops.exists(_.isInstanceOf[Filter]) =>
        f.copy(dataType = Schema.StatsType, nullable = true)
      case f => f
    })
    val (ti, mi, si) = (schema.fieldIndex(Schema.Text), schema.fieldIndex(Schema.Meta), schema.fieldIndex(Schema.Stats))
    df.mapPartitions { rows: Iterator[Row] =>
      rows.flatMap { r =>
        // Spark decodes a map column to an immutable Map (or null).
        apply(r.getString(ti), r.getAs[Map[String, String]](mi), r.getAs[Map[String, Double]](si)).map { case (t, s) =>
          Row.fromSeq(r.toSeq.updated(ti, t).updated(si, s))
        }
      }
    }(Encoders.row(schema))
  }
}

object RowProgram {
  def isRowOp(op: Op): Boolean = op match {
    case _: Mapper | _: Filter | _: MetaFilter => true
    case _                                     => false
  }

  /** Split an OP list into maximal runs of row OPs; every other OP (a
    * Deduplicator or Formatter) is a segment of its own.
    */
  def segments(ops: Seq[Op]): Seq[Seq[Op]] =
    ops.foldLeft(Vector.empty[Vector[Op]]) { (segs, op) =>
      if (isRowOp(op) && segs.lastOption.exists(_.forall(isRowOp))) segs.init :+ (segs.last :+ op)
      else segs :+ Vector(op)
    }
}
