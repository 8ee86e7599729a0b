package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so
  * that listener totals read afterwards are complete. The bus is private
  * to Spark; this object lives in Spark's package only to reach it. */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
