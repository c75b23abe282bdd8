# KnobsCheck.cmake - env-knob documentation gate (ctest docs_knobs_check)
#
# Two-way check between the code and docs/KNOBS.md:
#   1. every `getenv("EXO_*")` in the tree must be documented in KNOBS.md;
#   2. every EXO_* name KNOBS.md mentions must actually be read by code
#      (no documented-but-dead knobs).
# Plus a one-way check over README.md, DESIGN.md and docs/*.md:
#   3. every EXO_* name they mention must be a knob the code reads, a CMake
#      cache variable declared in the build (option() or CACHE), or a macro
#      #define'd under src/; a name written with a trailing `*` is a prefix
#      and must match at least one knob. CHANGES.md, EXPERIMENTS.md,
#      ROADMAP.md and PAPER*.md keep their history and are not scanned.
# Non-EXO variables the code honors (HOME, TMPDIR, XDG_CACHE_HOME) are
# documented prose-only and not gated here. Run directly with:
#
#   cmake -DREPO=/path/to/repo -P tests/KnobsCheck.cmake

if(NOT REPO)
  message(FATAL_ERROR "pass -DREPO=<repo root>")
endif()

file(GLOB_RECURSE CODE_FILES
  "${REPO}/src/*.cpp" "${REPO}/src/*.h"
  "${REPO}/tools/*.cpp"
  "${REPO}/bench/*.cpp" "${REPO}/bench/*.h"
  "${REPO}/tests/*.cpp" "${REPO}/tests/*.h"
  "${REPO}/examples/*.cpp")

set(READ_VARS "")
foreach(F ${CODE_FILES})
  file(READ "${F}" TEXT)
  string(REGEX MATCHALL "getenv\\(\"EXO_[A-Z0-9_]+\"" MATCHES "${TEXT}")
  foreach(M ${MATCHES})
    string(REGEX REPLACE "^getenv\\(\"" "" VAR "${M}")
    string(REGEX REPLACE "\"$" "" VAR "${VAR}")
    list(APPEND READ_VARS "${VAR}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES READ_VARS)
list(SORT READ_VARS)

set(KNOBS_MD "${REPO}/docs/KNOBS.md")
if(NOT EXISTS "${KNOBS_MD}")
  message(FATAL_ERROR "docs/KNOBS.md is missing")
endif()
file(READ "${KNOBS_MD}" KNOBS)
string(REGEX MATCHALL "EXO_[A-Z0-9_]+" DOC_VARS "${KNOBS}")
list(REMOVE_DUPLICATES DOC_VARS)
list(SORT DOC_VARS)

set(FAILED FALSE)
foreach(V ${READ_VARS})
  list(FIND DOC_VARS "${V}" IDX)
  if(IDX EQUAL -1)
    message(SEND_ERROR
            "knob ${V} is read by code but not documented in docs/KNOBS.md")
    set(FAILED TRUE)
  endif()
endforeach()
foreach(V ${DOC_VARS})
  list(FIND READ_VARS "${V}" IDX)
  if(IDX EQUAL -1)
    message(SEND_ERROR
            "docs/KNOBS.md mentions ${V} but no code reads it via getenv — "
            "remove it or implement it")
    set(FAILED TRUE)
  endif()
endforeach()

# Names the docs may use besides knobs: CMake cache variables and src/
# macros.
file(GLOB_RECURSE CMAKE_FILES
  "${REPO}/src/CMakeLists.txt" "${REPO}/tests/CMakeLists.txt"
  "${REPO}/tests/*.cmake" "${REPO}/bench/CMakeLists.txt"
  "${REPO}/tools/CMakeLists.txt" "${REPO}/examples/CMakeLists.txt")
set(OTHER_NAMES "")
foreach(F "${REPO}/CMakeLists.txt" ${CMAKE_FILES})
  file(READ "${F}" TEXT)
  string(REGEX MATCHALL "option\\(EXO_[A-Z0-9_]+|set\\(EXO_[A-Z0-9_]+[^)]*CACHE"
         MATCHES "${TEXT}")
  foreach(M ${MATCHES})
    string(REGEX MATCH "EXO_[A-Z0-9_]+" VAR "${M}")
    list(APPEND OTHER_NAMES "${VAR}")
  endforeach()
endforeach()
file(GLOB_RECURSE SRC_FILES "${REPO}/src/*.cpp" "${REPO}/src/*.h"
     "${REPO}/src/*.inc")
foreach(F ${SRC_FILES})
  file(READ "${F}" TEXT)
  string(REGEX MATCHALL "#define EXO_[A-Z0-9_]+" MATCHES "${TEXT}")
  foreach(M ${MATCHES})
    string(REGEX REPLACE "^#define " "" VAR "${M}")
    list(APPEND OTHER_NAMES "${VAR}")
  endforeach()
endforeach()

file(GLOB PROSE_DOCS "${REPO}/README.md" "${REPO}/DESIGN.md"
     "${REPO}/docs/*.md")
list(REMOVE_ITEM PROSE_DOCS "${KNOBS_MD}") # check 2 is the stricter one
foreach(F ${PROSE_DOCS})
  file(READ "${F}" TEXT)
  file(RELATIVE_PATH REL "${REPO}" "${F}")
  string(REGEX MATCHALL "EXO_[A-Z0-9_]+\\*?" NAMES "${TEXT}")
  list(REMOVE_DUPLICATES NAMES)
  foreach(N ${NAMES})
    if(N MATCHES "\\*$")
      string(REGEX REPLACE "\\*$" "" PREFIX "${N}")
      set(HIT FALSE)
      foreach(V ${READ_VARS})
        string(FIND "${V}" "${PREFIX}" POS)
        if(POS EQUAL 0)
          set(HIT TRUE)
        endif()
      endforeach()
      if(NOT HIT)
        message(SEND_ERROR "${REL} mentions ${N} but no knob has that prefix")
        set(FAILED TRUE)
      endif()
      continue()
    endif()
    list(FIND READ_VARS "${N}" IDX)
    list(FIND OTHER_NAMES "${N}" IDX2)
    if(IDX EQUAL -1 AND IDX2 EQUAL -1)
      message(SEND_ERROR
              "${REL} mentions ${N}, which is neither a knob the code reads "
              "nor a CMake cache variable nor a src/ macro")
      set(FAILED TRUE)
    endif()
  endforeach()
endforeach()

if(FAILED)
  message(FATAL_ERROR "knobs-check: FAILED")
endif()
list(LENGTH READ_VARS NVARS)
list(LENGTH PROSE_DOCS NDOCS)
message(STATUS "knobs-check: PASS (${NVARS} EXO_* knobs consistent; "
               "${NDOCS} prose docs name only live EXO_* names)")
