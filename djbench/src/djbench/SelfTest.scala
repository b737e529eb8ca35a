package djbench

import java.nio.file.{Files, Path}

/** The benchmark's self-test on tiny corpora (`run.py --self-test`): for every
  * workload, each reference agrees with the system (untraced loop and traced
  * replay), the references are not vacuous, and the digest check flags a
  * one-row change. Exits non-zero if any check fails.
  */
object SelfTest {
  def run(work: Path): Int = {
    Files.createDirectories(work)
    var failures = 0
    def expect(ok: Boolean, what: String): Unit = {
      println((if (ok) "ok    " else "FAIL  ") + what)
      if (!ok) failures += 1
    }
    val spark = Main.session(Workload.all.head)
    Workload.all.foreach { w =>
      val dir = work.resolve(w.name)
      val c = w.corpus(spark, 11L, Files.createDirectories(dir).resolve("input"), n = 400)
      expect(Corpus.idOrder(spark, c) == c.texts, s"${w.name}: sample ids follow the written order")
      val (exp, _) = Main.references(w, c)
      val (mappers, _, _) = Reference.split(w.recipe.ops)
      val ref = Reference.run(w.recipe.ops, Reference.mapped(mappers, c.texts))

      expect(ref.output.nonEmpty && ref.output.size < c.texts.size, s"${w.name}: reference keeps ${ref.output.size} of ${c.texts.size} docs")
      expect(exp.rerun != exp.first, s"${w.name}: the edit changes the output (${exp.first.rows} -> ${exp.rerun.rows} rows)")

      val loop = Loop.run(spark, w, c, dir.resolve("loop"))
      expect(loop.plain == exp.first, s"${w.name}: plain pass ${loop.plain} equals reference ${exp.first}")
      expect(loop.first == exp.first, s"${w.name}: first pass ${loop.first} equals reference ${exp.first}")
      expect(loop.rerun == exp.rerun, s"${w.name}: rerun ${loop.rerun} equals reference ${exp.rerun}")

      val replay = Replay.run(spark, w, c, dir.resolve("replay"))
      expect(replay.plain.forall(_.digest == loop.plain), s"${w.name}: traced plain pass equals untraced")
      expect(replay.first.digest == loop.first, s"${w.name}: traced first pass equals untraced")
      expect(replay.rerun.digest == loop.rerun, s"${w.name}: traced rerun equals untraced")
      if (w.cached) {
        expect(replay.rerun.hits > 0, s"${w.name}: rerun resumes after ${replay.rerun.hits} cached OPs")
        Loop.pass(spark, w.edited, c, dir.resolve("uncached"), None, traced = false)
        val uncached = Digest.ofParquet(spark, dir.resolve("uncached").toString)
        expect(uncached == loop.rerun, s"${w.name}: uncached run of the edited recipe $uncached equals the cached rerun")
      }

      val changed = ref.output.updated(0, ref.output(0) + " x")
      expect(Digest.of(changed) != exp.first, s"${w.name}: digest flags one changed row")
      expect(Digest.of(ref.output.tail) != exp.first, s"${w.name}: digest flags one missing row")
      expect(Digest.of(ref.output.reverse) != exp.first, s"${w.name}: digest flags reordered rows")
      Fs.delete(dir)
    }
    // Web corpora keep no exact duplicates past the filters; add copies that
    // differ only in case and spacing so the exact-dedup reference is exercised.
    val web = Workload("refine-loop").copy(name = "exact-dedup", cached = false)
    val base = Corpus.web(spark, 300, 12L)
    val copies = base.take(60).map(t => "  " + t.toUpperCase.replace(" ", "   "))
    val dup = Corpus.write(base ++ copies, work.resolve("dup"), Nil)
    val (dupExp, _) = Main.references(web, dup)
    val (dupMappers, _, _) = Reference.split(web.recipe.ops)
    val dupRef = Reference.run(web.recipe.ops, Reference.mapped(dupMappers, dup.texts))
    expect(dupRef.removedByDedup > 0, s"exact dedup: reference removes ${dupRef.removedByDedup} copies")
    val dupLoop = Loop.run(spark, web, dup, work.resolve("dup-loop"))
    expect(dupLoop.first == dupExp.first, s"exact dedup: system ${dupLoop.first} equals reference ${dupExp.first}")
    Fs.delete(work.resolve("dup-loop"))

    val (_, shape) = NearDupCorpus.generate(3L, 500)
    expect(math.abs(shape.clusteredShare - 0.4) < 0.01 && shape.longestChain >= 2,
      s"near-dup corpus: clustered share ${shape.clusteredShare}, longest chain ${shape.longestChain}")
    val (again, _) = NearDupCorpus.generate(3L, 500)
    expect(again == NearDupCorpus.generate(3L, 500)._1, "near-dup corpus is a function of the seed")
    spark.stop()
    println(if (failures == 0) "self-test passed" else s"self-test: $failures checks failed")
    if (failures == 0) 0 else 1
  }
}
