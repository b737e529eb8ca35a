package djbench

import scala.collection.immutable.ListMap
import org.apache.spark.sql.SparkSession
import repro.core.FusedFilter
import Main.{median, secs}

final case class Metric(name: String, value: Double, unit: String)

/** Turns loop and replay records into the reported metrics. Every value is
  * the median over the run's loops (or replays). Per-layer `*_s` metrics
  * are span self times summed over all steps of the loop; counts and ratios
  * are of the first pass, except the `cache.*_ops` counts, which are of the
  * rerun.
  */
object Metrics {

  def endToEnd(w: Workload, c: Corpus, loops: Seq[Loop.Result], setups: Seq[Double],
               attempted: Int, failed: Int): Seq[Metric] = {
    def med(f: Loop.Result => Double) = median(loops.map(f))
    Seq(
      Metric("docs_per_s", c.texts.size / med(r => secs(r.plainNs)), "docs/s"),
      Metric("cpu_s", med(r => secs(r.cpuNs)), "s"),
      Metric("setup_s", median(setups), "s"),
      Metric("ok_ratio", (attempted - failed).toDouble / attempted, "ratio"),
      Metric("probe_s", med(r => secs(r.probeNs)), "s"),
      Metric("first_pass_s", med(r => secs(r.firstNs)), "s"),
      Metric("rerun_s", med(r => secs(r.rerunNs)), "s"),
      Metric("bytes_written_per_input_byte", med(_.firstPassBytes.toDouble) / c.bytes, "ratio"),
    )
  }

  def perLayer(w: Workload, c: Corpus, loops: Seq[Loop.Result], loopCounts: Seq[Map[String, SparkCounts]],
               replays: Seq[Replay.Result], spark: SparkSession): Seq[Metric] = {
    val cores = spark.sparkContext.defaultParallelism
    val untracedWall = median(loops.map(r => secs(r.wallNs)))

    def rep(name: String, unit: String)(f: Replay.Result => Double) = Metric(name, median(replays.map(f)), unit)
    def layerS(layer: String)(r: Replay.Result) =
      secs(r.spans.leaves.filter(_.layer == layer).map(r.spans.selfNanos).sum)
    val firstStep = if (w.cached) "first_pass" else "plain_pass"
    def firstPass(r: Replay.Result) = r.spans.under(firstStep)
    def firstOf(r: Replay.Result, layer: String) = firstPass(r).find(_.layer == layer)
    def lastOf(r: Replay.Result, layer: String) = firstPass(r).reverse.find(_.layer == layer)
    def rowsIn(r: Replay.Result, layer: String) = firstOf(r, layer).map(_.rowsIn.toDouble).getOrElse(0.0)
    def ratio(a: Double, b: Double) = if (b <= 0) 0.0 else a / b
    def counts(r: Replay.Result, layers: Set[String]): SparkCounts = {
      val total = new SparkCounts
      firstPass(r).filter(s => layers(s.layer)).foreach(s => r.counts.get(s.id.toString).foreach(total += _))
      total
    }
    val dedupLayers = Set("dedup.hash", "dedup.process")
    def loopTotal(m: Map[String, SparkCounts]): SparkCounts = { val t = new SparkCounts; m.values.foreach(t += _); t }
    def loopMed(name: String, unit: String)(f: (Loop.Result, SparkCounts) => Double) =
      Metric(name, median(loops.zip(loopCounts.map(loopTotal)).map(f.tupled)), unit)

    Seq(
      rep("formatters.load_s", "s")(layerS("formatters")),
      rep("formatters.rows", "count")(r => firstOf(r, "formatters").map(_.rowsOut.toDouble).getOrElse(0.0)),
      rep("opfusion.planned_ops", "count")(_.first.planned.size.toDouble),
      rep("opfusion.fused_members", "count")(_.first.planned.collect { case f: FusedFilter => f.members.size }.sum.toDouble),
      rep("mappers.s", "s")(layerS("mappers")),
      rep("mappers.rows_in", "count")(rowsIn(_, "mappers")),
      rep("filters.stats_s", "s")(layerS("filters.stats")),
      rep("filters.decide_s", "s")(layerS("filters.decide")),
      rep("filters.rows_in", "count")(rowsIn(_, "filters.stats")),
      rep("filters.keep_ratio", "ratio")(r => ratio(lastOf(r, "filters.decide").map(_.rowsOut.toDouble).getOrElse(0.0), rowsIn(r, "filters.stats"))),
      rep("filters.tokenize_calls_per_row", "calls/row")(r =>
        ratio(firstPass(r).filter(_.layer == "filters.stats").map(_.wordCalls).sum.toDouble, rowsIn(r, "filters.stats"))),
      loopMed("plan.udf_nodes", "count")((l, _) => l.udfNodes.toDouble),
      loopMed("plan.tokenize_calls_per_row", "calls/row")((l, _) => l.plainWordCalls.toDouble / c.texts.size),
      rep("pipeline.composition_ratio", "ratio")(r => untracedWall / secs(r.spans.leaves.map(r.spans.selfNanos).sum)),
      rep("trace.overhead_s", "s")(r => secs(r.wallNs) - untracedWall),
      rep("trace.overhead_ratio", "ratio")(r => secs(r.wallNs) / untracedWall - 1),
      rep("dedup.hash_s", "s")(layerS("dedup.hash")),
      rep("dedup.process_s", "s")(layerS("dedup.process")),
      rep("dedup.removed_ratio", "ratio")(r =>
        1 - ratio(lastOf(r, "dedup.process").map(_.rowsOut.toDouble).getOrElse(0.0), rowsIn(r, "dedup.hash"))),
      rep("dedup.spark_jobs", "count")(counts(_, dedupLayers).jobs.toDouble),
      rep("dedup.shuffle_write_bytes", "bytes")(counts(_, dedupLayers).shuffleWriteBytes.toDouble),
      Metric("dedup.longest_chain", c.facts.toMap.getOrElse("longest_chain", 0).asInstanceOf[Int].toDouble, "docs"),
      rep("cache.write_s", "s")(layerS("cache.write")),
      rep("cache.read_s", "s")(layerS("cache.read")),
      rep("cache.hit_ops", "count")(_.rerun.hits.toDouble),
      rep("cache.recomputed_ops", "count")(r => if (w.cached) (r.rerun.planned.size - r.rerun.hits).toDouble else 0.0),
      rep("tracer.s", "s")(layerS("tracer")),
      rep("tracer.spark_jobs", "count")(counts(_, Set("tracer")).jobs.toDouble),
      rep("tracer.shuffle_write_bytes", "bytes")(counts(_, Set("tracer")).shuffleWriteBytes.toDouble),
      rep("analyzer.stats_s", "s")(layerS("analyzer.stats")),
      rep("analyzer.summarize_s", "s")(layerS("analyzer.summarize")),
      rep("analyzer.tokenize_calls_per_row", "calls/row")(r =>
        r.spans.leaves.find(_.layer == "analyzer.stats").map(s => ratio(s.wordCalls.toDouble, s.rowsIn.toDouble)).getOrElse(0.0)),
      rep("output.write_s", "s")(layerS("output")),
      loopMed("spark.task_s", "s")((_, k) => secs(k.taskNanos)),
      loopMed("spark.core_util", "ratio")((l, k) => ratio(k.taskNanos.toDouble, l.wallNs.toDouble * cores)),
      loopMed("spark.gc_s", "s")((l, _) => l.gcMs / 1e3),
      loopMed("spark.jobs", "count")((_, k) => k.jobs.toDouble),
      loopMed("spark.stages", "count")((_, k) => k.stages.toDouble),
      loopMed("spark.shuffle_write_bytes", "bytes")((_, k) => k.shuffleWriteBytes.toDouble),
      loopMed("spark.spill_bytes", "bytes")((_, k) => k.spillBytes.toDouble),
      loopMed("spark.failed_tasks", "count")((_, k) => k.failedTasks.toDouble),
    )
  }

  /** The result's `metrics` object; a value that is not a number becomes null. */
  def json(ms: Seq[Metric]): ListMap[String, ListMap[String, Any]] =
    ListMap(ms.map(m => m.name -> ListMap("value" -> (if (m.value.isNaN || m.value.isInfinite) null else m.value), "unit" -> m.unit)): _*)

  def table(ms: Seq[Metric]): String =
    ms.map(m => f"  ${m.name}%-34s ${m.value}%14.6f ${m.unit}").mkString("djbench metrics\n", "\n", "")
}
