package jobs

import org.apache.spark.sql.SparkSession

/** The session bootstrap of the spark-submit entrypoints, opened to the
  * benchmark so that its runs use exactly the settings `ProcessRecipe` users get.
  */
object BenchSession {
  def spark(name: String): SparkSession = JobSession.spark(name)
}
