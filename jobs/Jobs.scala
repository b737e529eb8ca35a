package jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for the spark-submit entrypoints (one object per
  * reproduced table/figure; run e.g. `spark-submit --class jobs.Table2 …`).
  */
private[jobs] object JobSession {
  def spark(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Tables 2 & 9: pre-training recipes → HELM-lite scores. */
object Table2 {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("table2")
    val r = Table2Experiment.run(s)
    println(r.table2); println(); println(r.table9)
    s.stop()
  }
}

/** Table 3: post-tuning pairwise judge comparison. */
object Table3 {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("table3")
    println(Table3Experiment.run(s).table3)
    s.stop()
  }
}

/** Tables 4 & 5: quality classifiers + CommonCrawl keeping ratios. */
object Table4 {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("table4")
    val r = Table4Experiment.run(s)
    println(r.table4); println(); println(r.table5)
    s.stop()
  }
}

/** Table 7: pre-training recipe statistics. */
object Table7 {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("table7")
    println(Table7Experiment.run(s).table7)
    s.stop()
  }
}

/** Table 8: post-tuning registry tag counts. */
object Table8 {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("table8")
    println(Table8Experiment.run(s).table8)
    s.stop()
  }
}

/** Table 9 alone (same run as Table 2). */
object Table9 {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("table9")
    println(Table2Experiment.run(s).table9)
    s.stop()
  }
}

/** Fig. 8 analog: end-to-end performance vs script baseline. */
object Perf {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("perf")
    println(PerfExperiment.run(s).table)
    s.stop()
  }
}

/** Fig. 9 analog: OP fusion & reordering. */
object Fusion {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("fusion")
    println(FusionExperiment.run(s).table)
    s.stop()
  }
}

/** Fig. 10 analog: node scalability, Ray-like vs Beam-like. */
object Scalability {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("scalability")
    println(ScalabilityExperiment.run(s).table)
    s.stop()
  }
}

/** Run a YAML recipe against a jsonl input and write parquet output:
  * `spark-submit --class jobs.ProcessRecipe … recipe.yaml in.jsonl out.parquet [op.param=value …]`
  * — the generic "process a dataset with a data recipe" entrypoint.
  */
object ProcessRecipe {
  def main(args: Array[String]): Unit = {
    require(args.length >= 3, "usage: ProcessRecipe <recipe.yaml> <in.jsonl> <out.parquet> [op.param=value …]")
    val s = JobSession.spark("process-recipe")
    val recipe = repro.core.Recipe.fromFile(args(0)).withOverrides(args.drop(3).toSeq)
    val input  = repro.core.Formatters.JsonlFormatter(args(1)).load(s)
    val out    = recipe.pipeline(fuse = true, reorder = true).run(input)
    out.write.mode("overwrite").parquet(args(2))
    // Count the written output: counting `out` would run the pipeline again.
    println(s"wrote ${s.read.parquet(args(2)).count()} samples to ${args(2)}")
    s.stop()
  }
}
