package djbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession

/** One benchmark run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * 1. Set-up, four times: start the session (`jobs.JobSession` settings) and
  *    warm up with one uncached, untraced first pass of the workload's recipe
  *    over 160 distinct clean documents. `setup_s` is the median; the first
  *    set-up also pays for loading the JVM's classes.
  *    Input generation and references happen between set-ups, untimed.
  * 2. The loop's probe and first pass once over the real input, untimed, so
  *    that timing starts warm. The first measured loop still runs about a
  *    sixth slower than the second; a whole warm-up loop did not change that.
  * 3. `--trace 0`: run the untraced loop until `--seconds` have passed, at
  *    least twice, and report the medians of the end-to-end metrics.
  *    `--trace 1`: spend half the time on untraced loops observed with a
  *    `SparkListener`, half on traced replays (at least one of each), and
  *    report the per-layer metrics.
  * Every output is checked against the references; a mismatch or an
  * exception counts as failed. The result goes to `--result` as one JSON object.
  */
object Main {
  final case class Args(workload: String = "", seed: Long = 1L, seconds: Int = 10, trace: Boolean = false,
                        work: Path = Paths.get("."), result: Path = Paths.get("result.json"),
                        selfTest: Boolean = false)

  def parse(argv: List[String], a: Args = Args()): Args = argv match {
    case Nil                         => a
    case "--workload" :: v :: rest   => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest       => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest    => parse(rest, a.copy(seconds = v.toInt))
    case "--trace" :: v :: rest      => parse(rest, a.copy(trace = v == "1"))
    case "--work" :: v :: rest       => parse(rest, a.copy(work = Paths.get(v)))
    case "--result" :: v :: rest     => parse(rest, a.copy(result = Paths.get(v)))
    case "--self-test" :: rest       => parse(rest, a.copy(selfTest = true))
    case other :: _                  => sys.error(s"unknown argument '$other'")
  }

  /** Writes the input lines, the facts and the result. */
  val json: ObjectMapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toList)
    val code =
      try if (a.selfTest) SelfTest.run(a.work) else run(a)
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  def session(w: Workload): SparkSession = {
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    jobs.BenchSession.spark(s"djbench-${w.name}")
  }

  def secs(ns: Long): Double = ns / 1e9

  def log(what: String, r: Loop.Result): Unit =
    Console.err.println(f"djbench: $what: plain pass ${secs(r.plainNs)}%.2f s, probe ${secs(r.probeNs)}%.2f s, " +
      f"first pass ${secs(r.firstNs)}%.2f s, rerun ${secs(r.rerunNs)}%.2f s, cpu ${secs(r.cpuNs)}%.2f s, gc ${r.gcMs / 1e3}%.2f s")

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Expected digests of the first pass and the rerun. */
  final case class Expected(first: Digest, rerun: Digest)

  def references(w: Workload, c: Corpus): (Expected, Seq[(String, Any)]) = {
    val (mappers, _, _) = Reference.split(w.recipe.ops)
    val mapped = Reference.mapped(mappers, c.texts)
    val first = Reference.run(w.recipe.ops, mapped)
    val rerun = Reference.run(w.edited.ops, mapped)
    val facts = Seq(
      "filter_drop_shares" -> first.dropShares.toMap,
      "reference_first_pass_rows" -> first.output.size,
      "reference_rerun_rows" -> rerun.output.size,
      "reference_dedup_removed" -> first.removedByDedup,
      "reference_label_rounds" -> first.labelRounds,
    )
    (Expected(Digest.of(first.output), Digest.of(rerun.output)), facts)
  }

  def run(a: Args): Int = {
    val w = Workload(a.workload)
    val runStart = System.nanoTime()
    Files.createDirectories(a.work)
    val setups = ArrayBuffer.empty[Double]
    var phaseStart = runStart
    def phase(what: String): Unit = {
      val now = System.nanoTime()
      Console.err.println(f"djbench: $what took ${secs(now - phaseStart)}%.1f s")
      phaseStart = now
    }

    var t = System.nanoTime()
    var spark = session(w)
    val sessionNs = System.nanoTime() - t
    val corpus = w.corpus(spark, a.seed, a.work.resolve("input"))
    val warmTexts = NearDupCorpus.generate(a.seed + 7919L, 160, clusteredShare = 0.0)._1
    val warm = Corpus.write(warmTexts, a.work.resolve("warm"), Nil)
    def warmUp(i: Int): Unit = {
      val dir = a.work.resolve(s"warm-$i")
      Loop.pass(spark, w.recipe, warm, dir.resolve("out"), None, traced = false)
      Fs.delete(dir)
    }
    t = System.nanoTime()
    warmUp(0)
    setups += secs(sessionNs + System.nanoTime() - t)

    phase("session, inputs and first set-up")
    val (expected, refFacts) = references(w, corpus)

    (1 to 3).foreach { i =>
      spark.stop()
      t = System.nanoTime()
      spark = session(w)
      warmUp(i)
      setups += secs(System.nanoTime() - t)
    }

    Loop.warmUp(spark, w, corpus, a.work.resolve("warm-loop"))
    Fs.delete(a.work.resolve("warm-loop"))
    phase("references and set-ups")
    var attempted = 0
    var failed = 0
    def check(what: String, got: Digest, want: Digest): Unit = {
      attempted += 1
      if (got != want) {
        failed += 1
        Console.err.println(s"djbench: $what output differs from the reference: got $got, want $want")
      }
    }

    val measureStart = System.nanoTime()
    val budget = a.seconds * 1000000000L
    def timeLeft(share: Double): Boolean = System.nanoTime() - measureStart < (budget * share).toLong
    val loops = ArrayBuffer.empty[Loop.Result]
    val loopCounts = ArrayBuffer.empty[Map[String, SparkCounts]]
    val replays = ArrayBuffer.empty[Replay.Result]
    var i = 0
    val untracedShare = if (a.trace) 0.5 else 1.0
    val minLoops = if (a.trace) 1 else 2
    while (loops.size < minLoops || timeLeft(untracedShare)) {
      val dir = a.work.resolve(s"loop-$i")
      val collector = if (a.trace) Some(new Collector(spark.sparkContext)) else None
      try {
        val r = Loop.run(spark, w, corpus, dir)
        collector.foreach(c => loopCounts += c.close())
        log(s"loop $i", r)
        if (w.cached) check("plain pass", r.plain, expected.first)
        check("first pass", r.first, expected.first)
        check("rerun", r.rerun, expected.rerun)
        loops += r
      } catch {
        case e: Exception =>
          val checks = if (w.cached) 3 else 2
          attempted += checks; failed += checks
          Console.err.println(s"djbench: loop $i failed: $e")
          if (loops.isEmpty && i >= 2) throw e
      }
      Fs.delete(dir)
      i += 1
    }
    if (a.trace) {
      while (replays.isEmpty || timeLeft(1.0)) {
        val dir = a.work.resolve(s"replay-$i")
        try {
          val r = Replay.run(spark, w, corpus, dir)
          r.plain.foreach(p => check("traced plain pass", p.digest, expected.first))
          check("traced first pass", r.first.digest, expected.first)
          check("traced rerun", r.rerun.digest, expected.rerun)
          replays += r
        } catch {
          case e: Exception =>
            attempted += 1; failed += 1
            Console.err.println(s"djbench: replay $i failed: $e")
            if (replays.isEmpty && i >= loops.size + 2) throw e
        }
        Fs.delete(dir)
        i += 1
      }
    }

    phase("measurement")
    val metrics =
      if (a.trace) Metrics.perLayer(w, corpus, loops.toSeq, loopCounts.toSeq, replays.toSeq, spark)
      else Metrics.endToEnd(w, corpus, loops.toSeq, setups.toSeq, attempted, failed)

    val facts = Seq(
      "workload" -> w.name,
      "seed" -> a.seed,
      "trace" -> (if (a.trace) 1 else 0),
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "heap_bytes" -> Runtime.getRuntime.maxMemory,
      "java" -> System.getProperty("java.version"),
      "spark_version" -> spark.version,
      "master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "input_docs" -> corpus.texts.size,
      "input_bytes" -> corpus.bytes,
      "warmup_docs" -> warm.texts.size,
      "why" -> w.why,
      "recipe" -> w.recipe.name,
      "rerun_edit" -> w.edit.mkString(" "),
      "cached_and_traced_passes" -> w.cached,
      "loops" -> loops.size,
      "replays" -> replays.size,
      "setup_s_each" -> setups.toSeq,
      "run_s" -> secs(System.nanoTime() - runStart),
    ) ++ corpus.facts ++ refFacts
    println("djbench facts " + json.writeValueAsString(ListMap(facts: _*)))
    println(Metrics.table(metrics))
    spark.stop()

    val result = ListMap(
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Metrics.json(metrics),
    )
    json.writeValue(a.result.toFile, result)
    0
  }
}
