package djbench

import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.SparkContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._

/** Spans of one traced replay, kept in memory. A span records its name, its
  * layer (the module whose public function it wraps), start, end, parent,
  * the rows it consumed and produced, and the `Tokenizers.words` calls made
  * while it was open. The open span's id travels to Spark jobs as the local
  * property `djbench.span` (see [[Collector]]).
  */
final class Spans(sc: SparkContext) {
  final class Span(val id: Int, val name: String, val layer: String, val parent: Int) {
    val startNs: Long = System.nanoTime()
    var endNs = 0L
    var rowsIn = -1L
    var rowsOut = -1L
    var wordCalls = 0L
    def nanos: Long = endNs - startNs
  }

  val all = ArrayBuffer.empty[Span]
  private var open = List.empty[Span]

  def apply[T](name: String, layer: String)(body: Span => T): T = {
    val s = new Span(all.size, name, layer, open.headOption.map(_.id).getOrElse(-1))
    all += s
    open = s :: open
    sc.setLocalProperty("djbench.span", s.id.toString)
    val wc0 = Collector.wordCalls
    try body(s)
    finally {
      s.endNs = System.nanoTime()
      s.wordCalls = Collector.wordCalls - wc0
      open = open.tail
      sc.setLocalProperty("djbench.span", open.headOption.map(_.id.toString).orNull)
    }
  }

  /** A span whose output is materialized (local checkpoint), so that it
    * covers its own work and the next span starts from computed rows.
    */
  def layer(name: String, layer: String, rowsIn: Long)(df: => DataFrame): DataFrame =
    apply(name, layer) { s =>
      s.rowsIn = rowsIn
      val m = df.localCheckpoint(true)
      s.rowsOut = Collector.own(sc)(m.count())
      m
    }

  def children(s: Span): Seq[Span] = all.filter(_.parent == s.id).toSeq

  /** Duration minus the part covered by child spans (children are sequential). */
  def selfNanos(s: Span): Long = s.nanos - children(s).map(_.nanos).sum

  def leaves: Seq[Span] = all.filter(s => children(s).isEmpty).toSeq

  /** Leaf spans under the step span named `step`. */
  def under(step: String): Seq[Span] = {
    def root(s: Span): Span = if (s.parent < 0) s else root(all(s.parent))
    leaves.filter(s => root(s).name == step)
  }
}

/** The traced run: replays `Pipeline.run`'s sequence for each loop step by
  * calling the modules' public functions, one span per call:
  * `JsonlFormatter.load`; `OpFusion.plan`; per planned OP
  * `computeStats`→`process` or `computeHash`→`process` (Mappers as a whole);
  * `CacheManager.has`/`load`/`save`; `Tracer.record`; `Analyzer.computeStats`
  * and `summarize`; and the parquet write. Its output digests must equal the
  * untraced loop's, so the replay cannot drift from `Pipeline.run`.
  */
object Replay {
  final case class PassInfo(planned: Seq[Op], hits: Int, digest: Digest)
  final case class Result(spans: Spans, counts: Map[String, SparkCounts], wallNs: Long,
                          plain: Option[PassInfo], first: PassInfo, rerun: PassInfo)

  def run(spark: SparkSession, w: Workload, c: Corpus, dir: Path): Result = {
    Files.createDirectories(dir)
    val sc = spark.sparkContext
    val sp = new Spans(sc)
    val collector = new Collector(sc)
    val cache = Loop.cacheManager(spark, w, dir)
    val t0 = System.nanoTime()
    val plain = sp("plain_pass", "step") { _ => pass(sp, spark, w.recipe, c, dir.resolve("plain"), None, traced = false) }
    sp("probe", "step") { _ =>
      val in = load(sp, spark, c)
      val stats = sp.layer("Analyzer.computeStats", "analyzer.stats", in.rows)(Analyzer.computeStats(in.df))
      sp("Analyzer.summarize", "analyzer.summarize") { _ => Analyzer.summarize(stats).collect() }
    }
    val first =
      if (w.cached) sp("first_pass", "step") { _ => pass(sp, spark, w.recipe, c, dir.resolve("first"), cache, traced = true) }
      else plain
    val rerun = sp("rerun", "step") { _ => pass(sp, spark, w.edited, c, dir.resolve("rerun"), cache, traced = false) }
    val wall = System.nanoTime() - t0
    val counts = collector.close()
    def digest(p: PassInfo, out: String) = p.copy(digest = Digest.ofParquet(spark, dir.resolve(out).toString))
    Result(sp, counts, wall,
      if (w.cached) Some(digest(plain, "plain")) else None,
      if (w.cached) digest(first, "first") else digest(plain, "plain"),
      digest(rerun, "rerun"))
  }

  private final case class Rows(df: DataFrame, rows: Long)

  private def load(sp: Spans, spark: SparkSession, c: Corpus): Rows = {
    val df = sp.layer("JsonlFormatter.load", "formatters", -1L)(
      Schema.ensure(Formatters.JsonlFormatter(c.path.toString).load(spark)))
    Rows(df, sp.all.last.rowsOut)
  }

  /** One pass, in `Pipeline.run`'s order. */
  private def pass(sp: Spans, spark: SparkSession, recipe: Recipe, c: Corpus, out: Path,
                   cache: Option[CacheManager], traced: Boolean): PassInfo = {
    val tracer = if (traced) Some(new Tracer()) else None
    val in = load(sp, spark, c)
    val planned = sp("OpFusion.plan", "opfusion") { _ => OpFusion.plan(recipe.ops, fuse = true, reorder = true) }
    var cur = in
    def step(op: Op): Unit = {
      val next = apply(sp, op, cur)
      tracer.foreach(t => sp("Tracer.record", "tracer") { _ => t.record(op, cur.df, next.df) })
      cur = next
    }
    val hits = cache match {
      case None =>
        planned.foreach(step)
        0
      case Some(cm) =>
        val keys = planned.scanLeft(cm.inputKey(recipe.name))((k, op) => cm.chainKey(k, op))
        val lastHit = sp("CacheManager.has", "cache.read") { _ => keys.zipWithIndex.reverse.find { case (k, _) => cm.has(k) } }
        val start = lastHit match {
          case Some((k, i)) =>
            cur = Rows(sp.layer("CacheManager.load", "cache.read", -1L)(cm.load(k)), -1L)
            cur = cur.copy(rows = sp.all.last.rowsOut)
            i
          case None =>
            cur = save(sp, cm, cur, keys.head, None)
            0
        }
        var prevKey = keys(start)
        planned.drop(start).zipWithIndex.foreach { case (op, j) =>
          step(op)
          val key = keys(start + j + 1)
          cur = save(sp, cm, cur, key, Some(prevKey).filter(_ != keys.head))
          prevKey = key
        }
        start
    }
    sp("DataFrameWriter.parquet", "output") { s =>
      s.rowsIn = cur.rows
      cur.df.write.mode("overwrite").parquet(out.toString)
    }
    PassInfo(planned, hits, Digest(0, ""))
  }

  private def save(sp: Spans, cm: CacheManager, r: Rows, key: String, prev: Option[String]): Rows = {
    val saved = sp("CacheManager.save", "cache.write") { s => s.rowsIn = r.rows; cm.save(r.df, key, prev) }
    Rows(sp.layer("CacheManager.load", "cache.read", r.rows)(saved), r.rows)
  }

  /** One planned OP, split at the boundary its category exposes. */
  private def apply(sp: Spans, op: Op, in: Rows): Rows = {
    def last = sp.all.last.rowsOut
    op match {
      case m: Mapper =>
        Rows(sp.layer(m.name, "mappers", in.rows)(m(in.df)), in.rows)
      case f: Filter =>
        val stats = sp.layer(s"${f.name}.computeStats", "filters.stats", in.rows)(f.computeStats(in.df))
        val kept = sp.layer(s"${f.name}.process", "filters.decide", in.rows)(f.process(stats))
        Rows(kept, last)
      case d: Deduplicator =>
        val hashed = sp.layer(s"${d.name}.computeHash", "dedup.hash", in.rows)(d.computeHash(in.df))
        val kept = sp.layer(s"${d.name}.process", "dedup.process", in.rows)(
          d.process(hashed).select(in.df.columns.map(col).toSeq: _*))
        Rows(kept, last)
      case other =>
        Rows(sp.layer(other.name, "filters.decide", in.rows)(other(in.df)), last)
    }
  }
}
