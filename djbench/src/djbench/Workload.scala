package djbench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.exp.Recipes

/** One benchmark workload. Every workload runs the paper's Sec. 5.2 loop
  * over its own corpus and recipe: probe the input with the Analyzer, run
  * the recipe from the JSONL input to parquet (the first pass), edit one
  * filter threshold with `Recipe.withOverrides`, and run again (the rerun).
  *
  * A `cached` workload runs both passes with a `CacheManager` (cache mode,
  * zstd), so that the rerun resumes from the cache, and the first pass with
  * a `Tracer`. Its loop starts with a plain pass: the recipe run as
  * `jobs.ProcessRecipe` runs it, without cache or tracer. In a workload that
  * is not cached, the first pass is that plain pass and the rerun
  * recomputes everything.
  */
final case class Workload(
    name: String,
    recipe: Recipe,
    edit: Seq[String],
    cached: Boolean,
    docs: Int,
    why: String,
) {
  def edited: Recipe = recipe.withOverrides(edit)

  /** The workload's input for `seed`: `docs` documents, or `n` if given. */
  def corpus(spark: SparkSession, seed: Long, path: Path, n: Int = docs): Corpus =
    if (name == "near-dup") {
      val (texts, shape) = NearDupCorpus.generate(seed, n)
      Corpus.write(texts, path, shape.facts)
    } else Corpus.write(Corpus.web(spark, n, seed), path, Nil)
}

object Workload {
  /** Light row segment, then MinHash-LSH near-dedup with its defaults. */
  val nearDupRecipe: Recipe = Recipe.fromYaml(
    """name: near-dup
      |ops:
      |  - whitespace_normalization_mapper
      |  - text_length_filter: {min_len: 200}
      |  - minhash_deduplicator
      |""".stripMargin)

  val all: Seq[Workload] = Seq(
    Workload("refine-loop", Recipes.djPretrain, Seq("text_length_filter.min_len=1480"),
      cached = true, docs = 400,
      why = "plain pretrain recipe pass, probe, cached traced first pass, rerun from cache after a threshold edit"),
    Workload("near-dup", nearDupRecipe, Seq("text_length_filter.min_len=1500"),
      cached = false, docs = 500,
      why = "MinHash hashing, band shuffle, verification joins and connected components do most of the work"),
  )

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(sys.error(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** The untraced loop: the code path a user of `jobs.ProcessRecipe` runs
  * (`JsonlFormatter.load`, `Recipe.pipeline(fuse = true, reorder = true)`,
  * `run`, parquet write), timed step by step with no benchmark spans.
  */
object Loop {
  final case class Result(
      plainNs: Long,
      probeNs: Long,
      firstNs: Long,
      rerunNs: Long,
      wallNs: Long,
      cpuNs: Long,
      gcMs: Long,
      firstPassBytes: Long,
      plain: Digest,
      first: Digest,
      rerun: Digest,
      udfNodes: Int,
      plainWordCalls: Long,
  )

  def cacheManager(spark: SparkSession, w: Workload, dir: Path): Option[CacheManager] =
    if (w.cached) Some(new CacheManager(spark, dir.resolve("cache").toString, CacheManager.ModeCache, "zstd"))
    else None

  /** One pass of `recipe` from the JSONL input to parquet at `out`. */
  def pass(spark: SparkSession, recipe: Recipe, c: Corpus, out: Path, cache: Option[CacheManager],
           traced: Boolean): DataFrame = {
    val input = Formatters.JsonlFormatter(c.path.toString).load(spark)
    val tracer = if (traced) Some(new Tracer()) else None
    val df = recipe.pipeline(fuse = true, reorder = true, tracer = tracer, cache = cache).run(input)
    df.write.mode("overwrite").parquet(out.toString)
    df
  }

  private def timed[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, System.nanoTime() - t0)
  }

  /** The loop's probe and first pass, untimed, so that the JIT has compiled
    * most of their code before timing starts. The plain pass of a cached
    * workload and the rerun run the same code as the set-up's warm-up or the
    * first pass.
    */
  def warmUp(spark: SparkSession, w: Workload, c: Corpus, dir: Path): Unit = {
    Files.createDirectories(dir)
    Analyzer.probe(Formatters.JsonlFormatter(c.path.toString).load(spark)).collect()
    pass(spark, w.recipe, c, dir.resolve("first"), cacheManager(spark, w, dir), traced = w.cached)
  }

  /** Run the loop once in a fresh directory `dir`. Digests are taken after
    * timing, in jobs tagged as the benchmark's own, so that a [[Collector]]
    * open around the loop counts only the program's work.
    */
  def run(spark: SparkSession, w: Workload, c: Corpus, dir: Path): Result = {
    Files.createDirectories(dir)
    val cache = cacheManager(spark, w, dir)
    val first = dir.resolve(if (w.cached) "first" else "plain")
    val cpu0 = Collector.cpuNanos
    val gc0 = Collector.gcMillis
    val wc0 = Collector.wordCalls
    val (plainDf, plainNs) = timed(pass(spark, w.recipe, c, dir.resolve("plain"), None, traced = false))
    val wc1 = Collector.wordCalls
    val (_, probeNs) = timed(Analyzer.probe(Formatters.JsonlFormatter(c.path.toString).load(spark)).collect())
    val (_, cachedNs) =
      if (w.cached) timed(pass(spark, w.recipe, c, first, cache, traced = true)) else ((), 0L)
    val bytes = Fs.bytes(first) + Fs.bytes(dir.resolve("cache"))
    val (_, rerunNs) = timed(pass(spark, w.edited, c, dir.resolve("rerun"), cache, traced = false))
    val cpu = Collector.cpuNanos - cpu0
    val gc = Collector.gcMillis - gc0
    def digest(p: Path) = Collector.own(spark.sparkContext)(Digest.ofParquet(spark, p.toString))
    Result(plainNs, probeNs, if (w.cached) cachedNs else plainNs, rerunNs, plainNs + probeNs + cachedNs + rerunNs,
      cpu, gc, bytes, digest(dir.resolve("plain")), digest(first), digest(dir.resolve("rerun")),
      Collector.udfNodes(plainDf), wc1 - wc0)
  }
}
