# CLI name-table test driven by CTest. MODE=engines: every
# --scheme/--local/--merge name is accepted and every combination prints
# the same skyline. MODE=unknown: an unknown name exits 2 with usage.
set(DATA "${WORK_DIR}/cli_names_${MODE}.csv")

execute_process(
  COMMAND ${CLI} gen --dist anti --n 2000 --dim 4 --seed 11 --out ${DATA}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed: ${rc}")
endif()

if(MODE STREQUAL "engines")
  execute_process(
    COMMAND ${CLI} query --in ${DATA} --groups 4
    RESULT_VARIABLE rc OUTPUT_VARIABLE expected ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "default query failed: ${rc}\n${err}")
  endif()
  foreach(scheme random grid angle quadtree naive-z zhg zdg)
    foreach(local sb zs bbs)
      foreach(merge sb zs zm pzm)
        execute_process(
          COMMAND ${CLI} query --in ${DATA} --groups 4 --scheme ${scheme}
                  --local ${local} --merge ${merge}
          RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
        if(NOT rc EQUAL 0)
          message(FATAL_ERROR "${scheme}/${local}/${merge} failed: ${rc}\n${err}")
        endif()
        if(NOT out STREQUAL expected)
          message(FATAL_ERROR "${scheme}/${local}/${merge} skyline differs")
        endif()
      endforeach()
    endforeach()
  endforeach()
elseif(MODE STREQUAL "unknown")
  foreach(flag scheme local merge)
    execute_process(
      COMMAND ${CLI} query --in ${DATA} --${flag} nosuch
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "--${flag} nosuch exited ${rc}, expected 2")
    endif()
    if(NOT err MATCHES "unknown --${flag}" OR NOT err MATCHES "usage:")
      message(FATAL_ERROR "--${flag} nosuch printed no usage:\n${err}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

file(REMOVE ${DATA})
