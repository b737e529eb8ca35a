package repro.core

import org.apache.spark.sql.DataFrame

/** The end-to-end data processing executor (paper Fig. 1, yellow box): takes
  * a unified dataset through an OP chain, optionally applying the OP-list
  * optimizer ([[OpFusion]]), sample-level tracing ([[Tracer]]), and per-OP
  * cache/checkpoint persistence ([[CacheManager]]) with hash-chain resume.
  *
  * Each maximal run of row OPs in the planned list executes as one
  * [[RowProgram]]; Deduplicators stay DataFrame barriers. With a tracer or a
  * cache manager every OP boundary is an observation or persistence point,
  * so each row OP then runs as its own one-OP program.
  */
final case class Pipeline(
    ops: Seq[Op],
    fuse: Boolean = false,
    reorder: Boolean = false,
    tracer: Option[Tracer] = None,
    cache: Option[CacheManager] = None,
    /** Identity of the input dataset for cache keying; same id + same recipe
      * prefix ⇒ resumable.
      */
    inputId: String = "input",
) {

  /** The OP list actually executed, after fusion/reordering. */
  lazy val planned: Seq[Op] = OpFusion.plan(ops, fuse, reorder)

  /** Run the pipeline. With a cache manager, the longest already-cached
    * prefix of the (planned) OP chain is loaded instead of recomputed, and
    * every subsequently produced OP output is persisted.
    */
  def run(input: DataFrame): DataFrame = {
    val df0 = Schema.ensure(input)
    cache match {
      case None if tracer.isEmpty =>
        RowProgram.segments(planned).foldLeft(df0) {
          case (df, Seq(op)) => op(df) // a lone row OP's `apply` is its one-OP program
          case (df, segment) => RowProgram(segment).run(df)
        }
      case None =>
        planned.foldLeft(df0) { (df, op) =>
          val out = op(df)
          tracer.foreach(_.record(op, df, out))
          out
        }
      case Some(cm) =>
        // Hash chain over OP signatures; find the longest cached prefix.
        val keys = planned.scanLeft(cm.inputKey(inputId))((k, op) => cm.chainKey(k, op))
        val lastHit = keys.zipWithIndex.reverse.find { case (k, _) => cm.has(k) }
        var (df, start) = lastHit match {
          case Some((k, i)) => (cm.load(k), i) // keys(i) is the output of op i-1 (or the input for i=0)
          case None =>
            // Persist the loaded/unified input itself (the paper's "one cache
            // data file for the original dataset").
            (cm.save(df0, keys.head, None), 0)
        }
        var prevKey = keys(start)
        planned.drop(start).zipWithIndex.foreach { case (op, j) =>
          val out = op(df)
          tracer.foreach(_.record(op, df, out))
          val key = keys(start + j + 1)
          // The original dataset's cache (keys.head) is never evicted — the
          // checkpoint-mode peak is original + previous + in-flight = 3×S.
          df = cm.save(out, key, Some(prevKey).filter(_ != keys.head))
          prevKey = key
        }
        df
    }
  }
}

object Pipeline {
  /** Convenience: run a plain OP list with no optimization or persistence. */
  def run(df: DataFrame, ops: Seq[Op]): DataFrame = Pipeline(ops).run(df)
}
