# Invoked by the asan_gate ctest (see tests/CMakeLists.txt): configures and
# builds a nested ASan+UBSan-instrumented tree (-DEXO_UKR_SANITIZE=address),
# then runs the memory-sensitive tests — the macro-kernel/pack paths
# (gemm_test), the generated-kernel numerics (ukr_test), the im2row
# lowering's computed-offset copies (dnn_test), the reference interpreter
# every rewrite is validated with — slot-indexed frames and window pointer
# arithmetic — and the scheduling primitives that drive it
# (exo_interp_test, exo_sched_test), the fuzz smoke sweep,
# whose random ldc slack and edge shapes are exactly where an out-of-bounds
# store would land, and the gemmd daemon suite, whose server does pointer
# arithmetic on client-written arena offsets — failing on any ASan/UBSan
# report.
#
# Variables: SRC (source root), BIN (nested binary dir).

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SRC} -B ${BIN} -DEXO_UKR_SANITIZE=address
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BIN} --target gemm_test ukr_test
          dnn_test exo_interp_test exo_sched_test fuzz_test daemon_test
          gemmd_client_helper
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: build failed")
endif()

execute_process(COMMAND ${BIN}/tests/gemm_test RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: gemm_test failed under ASan/UBSan")
endif()

execute_process(COMMAND ${BIN}/tests/ukr_test RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: ukr_test failed under ASan/UBSan")
endif()

execute_process(COMMAND ${BIN}/tests/dnn_test RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: dnn_test failed under ASan/UBSan")
endif()

foreach(T exo_interp_test exo_sched_test)
  execute_process(COMMAND ${BIN}/tests/${T} RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "asan_gate: ${T} failed under ASan/UBSan")
  endif()
endforeach()

# A reduced sweep: the host process is instrumented (interpreter, rewrite
# engine, oracle harness); JIT-compiled kernels are built by the external
# compiler without ASan and run in-process, which ASan tolerates.
set(ENV{EXO_FUZZ_ITERS} 24)
execute_process(
  COMMAND ${BIN}/tests/fuzz_test --gtest_filter=FuzzSmokeTest.*
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: fuzz_test failed under ASan/UBSan")
endif()

execute_process(COMMAND ${BIN}/tests/daemon_test RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "asan_gate: daemon_test failed under ASan/UBSan")
endif()
