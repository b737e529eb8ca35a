package repro.dist

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.jdk.CollectionConverters._
import repro.core._

/** Distributed-runtime simulator (paper Sec. 7 "Optimized Scalability" and
  * Fig. 10). The paper runs the same OP pipeline on Ray and on Beam/Flink
  * across 1–16 servers; we simulate a cluster with a worker-thread pool per
  * "node" over sharded input, executing the *row-level* forms of exactly the
  * same OP objects the Spark pipeline runs.
  *
  * Two executors reproduce the two observed scaling behaviours:
  *  - [[RayLikeExecutor]]: loading AND processing are shard-parallel across
  *    nodes → near-linear scaling;
  *  - [[BeamLikeExecutor]]: the source/Read stage is serialized at a single
  *    coordinator (the paper's diagnosis: "limited scalability … primarily
  *    constrained by the data loading component of Beam, which leads to a
  *    dominant file loading time ratio"), only processing scales.
  *
  * Supported OPs: Mappers, Filters, MetaFilters row-locally; exact-hash
  * deduplication via a global merge after the parallel phase (the shuffle
  * analog). That is the OP mix of the paper's scalability recipes.
  */
object DistExecutor {

  /** A simulated input line: serialized sample that must be parsed. `stats`
    * holds what [[applyRow]]'s filters computed; it is not serialized.
    */
  final case class Doc(id: Long, text: String, meta: Map[String, String],
                       stats: Map[String, Double] = Map.empty)

  private val FieldSep = '\u0001'
  private val MetaSep  = '\u0002'

  /** Backslash-escape `\`, newlines, both separators and `=` (the meta
    * key/value separator), so any text or meta value survives a round trip.
    */
  private def escape(s: String): String = {
    val sb = new java.lang.StringBuilder(s.length + 16)
    s.foreach {
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c == FieldSep || c == MetaSep || c == '=' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.toString
  }

  private def unescape(s: String): String =
    if (s.indexOf('\\') < 0) s
    else {
      val sb = new java.lang.StringBuilder(s.length)
      var i = 0
      while (i < s.length) {
        val c = s.charAt(i)
        if (c != '\\' || i + 1 == s.length) { sb.append(c); i += 1 }
        else s.charAt(i + 1) match {
          case 'n' => sb.append('\n'); i += 2
          case 'u' => sb.append(Integer.parseInt(s.substring(i + 2, i + 6), 16).toChar); i += 6
          case e   => sb.append(e); i += 2
        }
      }
      sb.toString
    }

  /** Serialize docs into jsonl-ish lines (the stored dataset). */
  def serialize(docs: Seq[Doc]): Vector[String] =
    docs.map { d =>
      val meta = d.meta.map { case (k, v) => s"${escape(k)}=${escape(v)}" }.mkString(MetaSep.toString)
      s"${d.id}$FieldSep$meta$FieldSep${escape(d.text)}"
    }.toVector

  /** Parse one stored line back into a Doc — does the real work a source connector
    * does (field splitting, meta reconstruction, escape handling, unicode
    * normalization) so the load stage has genuine cost — in the paper this
    * stage dominated Beam's runtime at 65-140GB scale.
    */
  def parse(line: String): Doc = {
    val parts = line.split(FieldSep.toString, 3)
    val meta = parts(1).split(MetaSep.toString).filter(_.nonEmpty).map { kv =>
      val i = kv.indexOf('='); unescape(kv.substring(0, i)) -> unescape(kv.substring(i + 1))
    }.toMap
    val text = java.text.Normalizer.normalize(unescape(parts(2)), java.text.Normalizer.Form.NFC)
    Doc(parts(0).toLong, text, meta)
  }

  /** Apply the row-level pipeline to one doc; None = filtered out. This is
    * the independent row reference the Spark path is checked against: every
    * filter recomputes its stats, mappers and contexts see `""` for a null
    * text, and the filters' stats are returned on the doc.
    */
  def applyRow(ops: Seq[Op], doc: Doc): Option[Doc] = {
    var text = doc.text
    var keep = true
    var stats = doc.stats
    ops.foreach {
      case m: Mapper if keep => text = m.mapText(if (text == null) "" else text)
      case f: Filter if keep =>
        val ctx = new TextContext(if (text == null) "" else text)
        stats = stats ++ f.computeStatsRow(ctx)
        keep = f.keepRow(stats)
      case mf: MetaFilter if keep => keep = mf.keepMeta(doc.meta)
      case _: Deduplicator => () // handled globally after the parallel phase
      case _ => ()
    }
    if (keep) Some(doc.copy(text = text, stats = stats)) else None
  }

  /** Global exact-dedup resolution, keep-first by id (the shuffle analog). */
  private def dedupGlobal(docs: Seq[Doc], hasDedup: Boolean): Seq[Doc] =
    if (!hasDedup) docs
    else docs.sortBy(_.id).foldLeft((Set.empty[Long], Vector.empty[Doc])) {
      case ((seen, acc), d) =>
        val h = Hashing.contentHash(d.text)
        if (seen(h)) (seen, acc) else (seen + h, acc :+ d)
    }._2

  private def shard[T](xs: Vector[T], n: Int): Seq[Vector[T]] = {
    val size = math.max(1, (xs.size + n - 1) / n)
    xs.grouped(size).toSeq
  }

  final case class RunResult(output: Seq[Doc], loadMillis: Long, processMillis: Long) {
    def totalMillis: Long = loadMillis + processMillis
  }

  private def timed[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Ray-like: shard-parallel load and process across `nodes` workers. */
  object RayLikeExecutor {
    def run(lines: Vector[String], ops: Seq[Op], nodes: Int): RunResult = {
      val pool = Executors.newFixedThreadPool(nodes)
      try {
        val shards = shard(lines, nodes)
        val (parsedShards, loadMs) = timed {
          pool.invokeAll(shards.map(s => new Callable[Vector[Doc]] {
            def call(): Vector[Doc] = s.map(parse)
          }).asJava).asScala.map(_.get()).toSeq
        }
        val (processed, procMs) = timed {
          val outs = pool.invokeAll(parsedShards.map(s => new Callable[Vector[Doc]] {
            def call(): Vector[Doc] = s.flatMap(d => applyRow(ops, d))
          }).asJava).asScala.map(_.get())
          dedupGlobal(outs.flatten.toSeq, ops.exists(_.isInstanceOf[Deduplicator]))
        }
        RunResult(processed, loadMs, procMs)
      } finally { pool.shutdown(); pool.awaitTermination(60, TimeUnit.SECONDS) }
    }
  }

  /** Beam-like: the source read is serialized at the coordinator; only the
    * process stage uses the `nodes` workers.
    */
  object BeamLikeExecutor {
    def run(lines: Vector[String], ops: Seq[Op], nodes: Int): RunResult = {
      val pool = Executors.newFixedThreadPool(nodes)
      try {
        val (parsed, loadMs) = timed { lines.map(parse) }
        val (processed, procMs) = timed {
          val outs = pool.invokeAll(shard(parsed, nodes).map(s => new Callable[Vector[Doc]] {
            def call(): Vector[Doc] = s.flatMap(d => applyRow(ops, d))
          }).asJava).asScala.map(_.get())
          dedupGlobal(outs.flatten.toSeq, ops.exists(_.isInstanceOf[Deduplicator]))
        }
        RunResult(processed, loadMs, procMs)
      } finally { pool.shutdown(); pool.awaitTermination(60, TimeUnit.SECONDS) }
    }
  }
}
