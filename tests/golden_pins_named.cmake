# Fails when a file under tests/golden/engine/ is named, as a quoted
# "engine/<file>" literal, by no test source: a pin whose test is gone
# must go with it.
#
#   cmake -DROOT=<repository root> -P tests/golden_pins_named.cmake
file(GLOB sources "${ROOT}/tests/*.cpp" "${ROOT}/tests/*.hpp"
     "${ROOT}/tests/support/*.cpp" "${ROOT}/tests/support/*.hpp")
set(text "")
foreach(source IN LISTS sources)
  file(READ "${source}" body)
  string(APPEND text "${body}")
endforeach()
file(GLOB pins RELATIVE "${ROOT}/tests/golden" "${ROOT}/tests/golden/engine/*")
set(orphans "")
foreach(pin IN LISTS pins)
  string(FIND "${text}" "\"${pin}\"" at)
  if(at EQUAL -1)
    list(APPEND orphans "${pin}")
  endif()
endforeach()
if(orphans)
  message(FATAL_ERROR "no test source names these golden pins: ${orphans}")
endif()
list(LENGTH pins count)
message(STATUS "each of the ${count} engine golden pins is named by a test")
